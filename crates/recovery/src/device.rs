//! Simulated log devices (§5.2).
//!
//! A device writes one 4096-byte log page in 10 ms of *virtual* time (the
//! paper's figure for a seek-free page write) and is busy until the write
//! completes. The throughput simulator charges page writes against it;
//! pages carry no records, since only their timing matters to the model.

/// Virtual time in microseconds.
pub type Micros = u64;

/// A simulated sequential log device.
#[derive(Debug)]
pub struct LogDevice {
    busy_until: Micros,
    write_time: Micros,
    pages_written: usize,
}

impl LogDevice {
    /// A device with the paper's 10 ms page write.
    pub fn paper() -> Self {
        LogDevice::new(10_000)
    }

    /// A device whose page write takes `write_time_us`.
    pub fn new(write_time_us: Micros) -> Self {
        LogDevice {
            busy_until: 0,
            write_time: write_time_us,
            pages_written: 0,
        }
    }

    /// When the device next becomes idle.
    pub fn busy_until(&self) -> Micros {
        self.busy_until
    }

    /// Submits a page at virtual time `now`; returns the time the page
    /// becomes durable. Writes queue behind the device's current work (a
    /// single arm writes one page at a time), so pages complete in
    /// submission order.
    pub fn write_page(&mut self, now: Micros) -> Micros {
        let done = now.max(self.busy_until) + self.write_time;
        self.busy_until = done;
        self.pages_written += 1;
        done
    }

    /// Total pages ever submitted.
    pub fn pages_written(&self) -> usize {
        self.pages_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_serialize_on_the_device() {
        let mut d = LogDevice::paper();
        let t1 = d.write_page(0);
        assert_eq!(t1, 10_000);
        // Submitted while busy: queues behind the first write.
        let t2 = d.write_page(1_000);
        assert_eq!(t2, 20_000);
        // Submitted after idle: starts immediately.
        let t3 = d.write_page(50_000);
        assert_eq!(t3, 60_000);
        assert_eq!(d.pages_written(), 3);
    }

    #[test]
    fn paper_rate_is_100_pages_per_second() {
        let mut d = LogDevice::paper();
        let mut now = 0;
        for _ in 0..100 {
            now = d.write_page(now);
        }
        assert_eq!(now, 1_000_000, "100 page writes take one virtual second");
    }
}
