//! Host references every answer is checked against.
//!
//! The references are computed from the benchmark's own copy of the rows
//! with the program's documented total order: keys first, then the row id
//! (the smaller id ranks higher on a key tie for `DESC`, and `ASC`
//! reverses the whole order, id tie-break included). Comparing id
//! sequences therefore checks keys and tie-breaks at once.

use std::cmp::Ordering;
use std::collections::HashMap;

use datagen::twitter::TweetTable;
use datagen::TopKItem;

/// The SQL shapes the serving workloads send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `WHERE tweet_time < cutoff ORDER BY retweet_count DESC LIMIT k`
    /// (no `WHERE` when `cutoff` is `None`).
    Top { cutoff: Option<u32>, k: usize },
    /// `ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT k`.
    Ranked { k: usize },
    /// `ORDER BY retweet_count ASC LIMIT k`.
    Bottom { k: usize },
    /// `SELECT uid, COUNT(*) ... GROUP BY uid ORDER BY COUNT(*) DESC LIMIT k`.
    Group { k: usize },
}

impl Shape {
    /// The SQL text the program receives.
    pub fn sql(&self) -> String {
        match *self {
            Shape::Top { cutoff: None, k } => {
                format!("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT {k}")
            }
            Shape::Top { cutoff: Some(c), k } => format!(
                "SELECT id FROM tweets WHERE tweet_time < {c} ORDER BY retweet_count DESC LIMIT {k}"
            ),
            Shape::Ranked { k } => format!(
                "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {k}"
            ),
            Shape::Bottom { k } => {
                format!("SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT {k}")
            }
            Shape::Group { k } => format!(
                "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT {k}"
            ),
        }
    }
}

/// The `k` best of `items` under `better` (a strict "ranks before"),
/// in rank order.
fn best_k<T: Copy>(mut items: Vec<T>, k: usize, better: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    let k = k.min(items.len());
    if k == 0 {
        return Vec::new();
    }
    if k < items.len() {
        items.select_nth_unstable_by(k - 1, &better);
        items.truncate(k);
    }
    items.sort_unstable_by(&better);
    items
}

/// The reference answer of `shape` over `rows`.
pub fn reference(rows: &TweetTable, shape: &Shape) -> Vec<u32> {
    let n = rows.len();
    match *shape {
        Shape::Top { cutoff, k } => {
            let c = cutoff.unwrap_or(u32::MAX);
            let items: Vec<(u32, u32)> = (0..n)
                .filter(|&r| rows.tweet_time[r] < c)
                .map(|r| (rows.retweet_count[r], rows.id[r]))
                .collect();
            best_k(items, k, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)))
                .into_iter()
                .map(|x| x.1)
                .collect()
        }
        Shape::Ranked { k } => {
            let items: Vec<(f32, u32)> = (0..n)
                .map(|r| {
                    let rank = rows.retweet_count[r] as f32 + 0.5 * rows.likes_count[r] as f32;
                    (rank, rows.id[r])
                })
                .collect();
            best_k(items, k, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)))
                .into_iter()
                .map(|x| x.1)
                .collect()
        }
        Shape::Bottom { k } => {
            let items: Vec<(u32, u32)> = (0..n)
                .map(|r| (rows.retweet_count[r], rows.id[r]))
                .collect();
            best_k(items, k, |a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                .into_iter()
                .map(|x| x.1)
                .collect()
        }
        Shape::Group { k } => {
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for &u in &rows.uid {
                *counts.entry(u).or_insert(0) += 1;
            }
            let items: Vec<(u32, u32)> = counts.into_iter().map(|(u, c)| (c, u)).collect();
            best_k(items, k, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)))
                .into_iter()
                .map(|x| x.1)
                .collect()
        }
    }
}

/// References memoised per (pool index, table epoch), computed on first
/// use — outside every timed section.
#[derive(Default)]
pub struct Memo {
    answers: HashMap<(usize, u64), Vec<u32>>,
}

impl Memo {
    /// The reference for pool entry `idx` at `epoch` over `rows`.
    pub fn get(&mut self, idx: usize, epoch: u64, shape: &Shape, rows: &TweetTable) -> &[u32] {
        self.answers
            .entry((idx, epoch))
            .or_insert_with(|| reference(rows, shape))
    }
}

/// Every item of `data` in descending item order (the program's
/// `largest` order, tie-breaks included): a top-k reference is a prefix.
pub fn sorted_desc<T: TopKItem>(data: &[T]) -> Vec<T> {
    let mut v = data.to_vec();
    v.sort_unstable_by(|a, b| {
        if b.item_lt(a) {
            Ordering::Less
        } else if a.item_lt(b) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::Kv;

    fn rows() -> TweetTable {
        TweetTable {
            id: vec![0, 1, 2, 3, 4],
            tweet_time: vec![10, 20, 30, 40, 50],
            retweet_count: vec![5, 9, 5, 0, 9],
            likes_count: vec![0, 0, 2, 30, 0],
            lang: vec![0; 5],
            uid: vec![7, 3, 7, 3, 1],
        }
    }

    #[test]
    fn references_follow_the_documented_tie_breaks() {
        let t = rows();
        let top = |cutoff, k| reference(&t, &Shape::Top { cutoff, k });
        assert_eq!(top(None, 3), vec![1, 4, 0]); // 9,9 by smaller id, then 5
        assert_eq!(top(Some(35), 2), vec![1, 0]);
        // ranks 15 (id 3), then 9 (id 1 before id 4)
        assert_eq!(reference(&t, &Shape::Ranked { k: 2 }), vec![3, 1]);
        // ASC reverses the order, tie-break included: larger id first
        assert_eq!(reference(&t, &Shape::Bottom { k: 3 }), vec![3, 2, 0]);
        // uid 3 and 7 both count 2: smaller uid first
        assert_eq!(reference(&t, &Shape::Group { k: 2 }), vec![3, 7]);
    }

    #[test]
    fn sorted_desc_breaks_key_ties_by_smaller_id() {
        let v = [Kv::new(1.0f32, 5), Kv::new(2.0, 9), Kv::new(1.0, 2)];
        let s = sorted_desc(&v);
        assert_eq!(s.iter().map(|x| x.value).collect::<Vec<_>>(), vec![9, 2, 5]);
    }

    #[test]
    fn sql_round_trips_through_the_parser() {
        for shape in [
            Shape::Top { cutoff: None, k: 4 },
            Shape::Top {
                cutoff: Some(99),
                k: 4,
            },
            Shape::Ranked { k: 4 },
            Shape::Bottom { k: 4 },
            Shape::Group { k: 4 },
        ] {
            let q = qdb::parse_sql(&shape.sql()).expect("pool sql parses");
            assert_eq!(q.limit, 4, "{}", shape.sql());
        }
    }
}
