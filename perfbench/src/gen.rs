//! Seeded input generation. The benchmark owns its random stream, so a
//! change to the program under test can never change the inputs.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, split by `stream` so that connections and
    /// phases draw independent sequences from one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The SplitMix64 finalizer, also used to fingerprint result rows.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rows of `acct(id INT, bal INT)`.
pub const ACCOUNTS: u64 = 10_000;
/// Every account's opening balance.
pub const OPENING_BALANCE: i64 = 1_000_000;
/// Rows of `emp(id, dept, sal)`.
pub const EMPLOYEES: u64 = 20_000;
/// Rows of `dept(did, floor)`.
pub const DEPARTMENTS: u64 = 2_000;
/// Distinct `dept.floor` values; each floor holds the same number of
/// departments, so every join query returns about `EMPLOYEES / FLOORS`
/// rows.
pub const FLOORS: u64 = 20;

/// A transfer of one unit from `from` to `to` (distinct accounts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub from: u64,
    pub to: u64,
}

impl Transfer {
    /// A pair drawn uniformly from the distinct ordered pairs of
    /// accounts `1..=ACCOUNTS`.
    pub fn draw(rng: &mut Rng) -> Transfer {
        let from = 1 + rng.below(ACCOUNTS);
        let mut to = 1 + rng.below(ACCOUNTS - 1);
        if to >= from {
            to += 1;
        }
        Transfer { from, to }
    }

    /// The transaction's statements. The two updates go in ascending
    /// account order: two connections then always lock rows in the same
    /// order, so the workload cannot deadlock and no transaction fails.
    pub fn statements(&self) -> [String; 4] {
        let debit = format!("UPDATE acct SET bal = bal - 1 WHERE id = {}", self.from);
        let credit = format!("UPDATE acct SET bal = bal + 1 WHERE id = {}", self.to);
        let (first, second) = if self.from < self.to {
            (debit, credit)
        } else {
            (credit, debit)
        };
        ["BEGIN".to_string(), first, second, "COMMIT".to_string()]
    }
}

/// The point read of the `mixed` workload.
pub fn point_read(rng: &mut Rng) -> (u64, String) {
    let id = 1 + rng.below(ACCOUNTS);
    (id, format!("SELECT bal FROM acct WHERE id = {id}"))
}

/// The join query of the `join` workload for floor `k`.
pub fn join_query(floor: u64) -> String {
    format!(
        "SELECT emp.id, emp.sal FROM emp JOIN dept ON emp.dept = dept.did WHERE dept.floor = {floor}"
    )
}

/// The generated rows of the `join` workload's two tables.
#[derive(Debug, Clone)]
pub struct JoinData {
    /// `(id, dept, sal)`.
    pub emp: Vec<(i64, i64, i64)>,
    /// `(did, floor)`.
    pub dept: Vec<(i64, i64)>,
}

impl JoinData {
    pub fn generate(seed: u64) -> JoinData {
        let mut rng = Rng::new(seed, 0xD47A);
        // Deal floors round-robin over a shuffled department list, so
        // every floor gets exactly DEPARTMENTS / FLOORS departments.
        let mut dids: Vec<i64> = (1..=DEPARTMENTS as i64).collect();
        for i in (1..dids.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            dids.swap(i, j);
        }
        let mut dept: Vec<(i64, i64)> = dids
            .iter()
            .enumerate()
            .map(|(i, &did)| (did, (i as u64 % FLOORS) as i64))
            .collect();
        dept.sort_unstable();
        let emp = (1..=EMPLOYEES as i64)
            .map(|id| {
                let d = 1 + rng.below(DEPARTMENTS) as i64;
                let sal = 1_000 + rng.below(99_000) as i64;
                (id, d, sal)
            })
            .collect();
        JoinData { emp, dept }
    }
}

/// Batched `INSERT` statements for `rows`, `batch` rows per statement.
pub fn insert_batches<R>(
    table: &str,
    rows: &[R],
    batch: usize,
    fmt: impl Fn(&R) -> String,
) -> Vec<String> {
    rows.chunks(batch.max(1))
        .map(|chunk| {
            let values: Vec<String> = chunk.iter().map(&fmt).collect();
            format!("INSERT INTO {table} VALUES {}", values.join(", "))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_pairs_are_distinct() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..10_000 {
            let t = Transfer::draw(&mut a);
            assert_ne!(t.from, t.to);
            assert!((1..=ACCOUNTS).contains(&t.from) && (1..=ACCOUNTS).contains(&t.to));
        }
    }

    #[test]
    fn updates_go_in_ascending_account_order() {
        let s = Transfer { from: 9, to: 3 }.statements();
        assert_eq!(s[1], "UPDATE acct SET bal = bal + 1 WHERE id = 3");
        assert_eq!(s[2], "UPDATE acct SET bal = bal - 1 WHERE id = 9");
    }

    #[test]
    fn floors_are_balanced() {
        let d = JoinData::generate(3);
        assert_eq!(d.dept.len() as u64, DEPARTMENTS);
        assert_eq!(d.emp.len() as u64, EMPLOYEES);
        for f in 0..FLOORS as i64 {
            let n = d.dept.iter().filter(|(_, fl)| *fl == f).count() as u64;
            assert_eq!(n, DEPARTMENTS / FLOORS);
        }
    }

    #[test]
    fn insert_batches_split_rows() {
        let rows = [1, 2, 3, 4, 5];
        let b = insert_batches("t", &rows, 2, |r| format!("({r})"));
        assert_eq!(
            b,
            [
                "INSERT INTO t VALUES (1), (2)",
                "INSERT INTO t VALUES (3), (4)",
                "INSERT INTO t VALUES (5)"
            ]
        );
    }
}
