//! The output oracle: the balances acknowledged transfers imply, and a
//! reference join computed from the benchmark's own generated rows.

use crate::gen::{mix, JoinData, Transfer, ACCOUNTS, FLOORS, OPENING_BALANCE};
use std::collections::HashMap;

/// Net balance change per account from the transfers the benchmark saw
/// acknowledged (`COMMIT` answered without error).
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    net: Vec<i64>,
    pub committed: u64,
    /// Transactions whose `COMMIT` failed with an unknown outcome. Any
    /// such transaction makes the expected balances unknowable.
    pub ambiguous: u64,
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger {
            net: vec![0; ACCOUNTS as usize + 1],
            committed: 0,
            ambiguous: 0,
        }
    }
}

impl Ledger {
    pub fn apply(&mut self, t: Transfer) {
        self.net[t.from as usize] -= 1;
        self.net[t.to as usize] += 1;
        self.committed += 1;
    }

    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.net.iter_mut().zip(&other.net) {
            *a += b;
        }
        self.committed += other.committed;
        self.ambiguous += other.ambiguous;
    }

    pub fn expected(&self, id: u64) -> i64 {
        OPENING_BALANCE + self.net[id as usize]
    }

    /// Checks a full `(id, bal)` listing of `acct`: every account
    /// present once with its expected balance, and the total conserved.
    pub fn check(&self, rows: &[(i64, i64)]) -> Result<(), String> {
        if self.ambiguous > 0 {
            return Err(format!("{} commits have unknown outcome", self.ambiguous));
        }
        if rows.len() as u64 != ACCOUNTS {
            return Err(format!("acct has {} rows, expected {ACCOUNTS}", rows.len()));
        }
        let mut seen = vec![false; ACCOUNTS as usize + 1];
        let mut total: i64 = 0;
        for &(id, bal) in rows {
            if id < 1 || id as u64 > ACCOUNTS || seen[id as usize] {
                return Err(format!("unexpected or duplicate account id {id}"));
            }
            seen[id as usize] = true;
            if bal != self.expected(id as u64) {
                return Err(format!(
                    "account {id}: balance {bal}, expected {}",
                    self.expected(id as u64)
                ));
            }
            total += bal;
        }
        let want = OPENING_BALANCE * ACCOUNTS as i64;
        if total != want {
            return Err(format!("total balance {total}, expected {want}"));
        }
        Ok(())
    }
}

/// An order-independent fingerprint of a result multiset of
/// `(emp.id, emp.sal)` rows: row count plus a wrapping sum and xor of
/// per-row hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub rows: u64,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    pub fn add(&mut self, id: i64, sal: i64) {
        let h = mix(mix(id as u64) ^ (sal as u64).rotate_left(32));
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= mix(h);
    }

    pub fn of(rows: impl IntoIterator<Item = (i64, i64)>) -> Fingerprint {
        let mut f = Fingerprint::default();
        for (id, sal) in rows {
            f.add(id, sal);
        }
        f
    }
}

/// The reference join: for each floor, the fingerprint of
/// `SELECT emp.id, emp.sal FROM emp JOIN dept ON emp.dept = dept.did
/// WHERE dept.floor = floor`, computed by a plain hash lookup.
pub fn reference_join(data: &JoinData) -> Vec<Fingerprint> {
    let floor_of: HashMap<i64, i64> = data.dept.iter().copied().collect();
    let mut out = vec![Fingerprint::default(); FLOORS as usize];
    for &(id, dept, sal) in &data.emp {
        if let Some(&floor) = floor_of.get(&dept) {
            out[floor as usize].add(id, sal);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing(l: &Ledger) -> Vec<(i64, i64)> {
        (1..=ACCOUNTS)
            .map(|id| (id as i64, l.expected(id)))
            .collect()
    }

    #[test]
    fn ledger_tracks_net_transfers_and_conserves_money() {
        let mut a = Ledger::default();
        a.apply(Transfer { from: 1, to: 2 });
        a.apply(Transfer { from: 1, to: 3 });
        let mut b = Ledger::default();
        b.apply(Transfer { from: 3, to: 1 });
        a.merge(&b);
        assert_eq!(a.committed, 3);
        assert_eq!(a.expected(1), OPENING_BALANCE - 1);
        assert_eq!(a.expected(2), OPENING_BALANCE + 1);
        assert_eq!(a.expected(3), OPENING_BALANCE);
        assert_eq!(a.check(&listing(&a)), Ok(()));
    }

    #[test]
    fn ledger_rejects_wrong_missing_and_ambiguous_states() {
        let mut l = Ledger::default();
        l.apply(Transfer { from: 5, to: 6 });
        let good = listing(&l);
        let mut lost = good.clone();
        lost[4].1 += 1;
        lost[5].1 -= 1;
        assert!(l.check(&lost).unwrap_err().contains("account 5"));
        assert!(l.check(&good[1..]).is_err());
        let mut dup = good.clone();
        dup[0].0 = 2;
        assert!(l.check(&dup).unwrap_err().contains("duplicate"));
        let mut unbalanced = good.clone();
        unbalanced.retain(|r| r.0 != 7);
        unbalanced.push((7, OPENING_BALANCE + 1));
        assert!(l.check(&unbalanced).is_err());
        l.ambiguous = 1;
        assert!(l.check(&good).unwrap_err().contains("unknown outcome"));
    }

    #[test]
    fn fingerprint_is_a_multiset_hash() {
        let a = Fingerprint::of([(1, 10), (2, 20), (3, 30)]);
        let b = Fingerprint::of([(3, 30), (1, 10), (2, 20)]);
        assert_eq!(a, b);
        assert_ne!(a, Fingerprint::of([(1, 10), (2, 20)]));
        assert_ne!(a, Fingerprint::of([(1, 10), (2, 20), (3, 31)]));
        assert_ne!(a, Fingerprint::of([(1, 10), (2, 20), (3, 30), (3, 30)]));
        assert_ne!(Fingerprint::of([(1, 2)]), Fingerprint::of([(2, 1)]));
    }

    #[test]
    fn reference_join_matches_a_nested_loop_join() {
        let mut rng = crate::gen::Rng::new(11, 0);
        let dept: Vec<(i64, i64)> = (1..=40).map(|d| (d, rng.below(FLOORS) as i64)).collect();
        // Department 41 does not exist: its employees join nothing.
        let emp: Vec<(i64, i64, i64)> = (1..=400)
            .map(|id| (id, 1 + rng.below(41) as i64, rng.below(1000) as i64))
            .collect();
        let data = JoinData { emp, dept };
        let reference = reference_join(&data);
        for floor in 0..FLOORS as i64 {
            let mut want = Fingerprint::default();
            for &(id, d, sal) in &data.emp {
                for &(did, fl) in &data.dept {
                    if did == d && fl == floor {
                        want.add(id, sal);
                    }
                }
            }
            assert_eq!(reference[floor as usize], want, "floor {floor}");
        }
        let joined: u64 = reference.iter().map(|f| f.rows).sum();
        let orphans = data.emp.iter().filter(|e| e.1 == 41).count() as u64;
        assert_eq!(joined + orphans, 400);
    }
}
