//! Small shared pieces: a seeded RNG, order statistics, a JSON writer and
//! the metric list every mode prints.

use std::fmt::Write as _;
use std::time::Instant;

/// splitmix64: the benchmark's only randomness, so a seed fixes every
/// input on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream derived from this seed and a label.
    pub fn fork(seed: u64, label: u64) -> Rng {
        let mut r = Rng::new(seed);
        r.0 = r.0.wrapping_add(label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile of each run of `size` consecutive samples (a
/// shorter tail is dropped), one value per run.
pub fn per_chunk(samples: &[f64], size: usize, p: f64) -> Vec<f64> {
    samples
        .chunks_exact(size.max(1))
        .map(|c| percentile(c, p))
        .collect()
}

/// Sleeps until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Canonical key of an undirected pair.
pub fn pair_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

/// A named measurement with its unit, in the order it was taken.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Adds each of `other`'s metrics that `self` does not hold yet.
    pub fn fill(&mut self, other: Metrics) {
        for (name, value, unit) in other.0 {
            if self.get(&name).is_none() {
                self.0.push((name, value, unit));
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Minimal JSON value for the result and record lines.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => {
                // `{:?}` keeps every digit and always marks a float.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let m = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(m)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert!(Rng::new(1).below(10) < 10);
    }

    #[test]
    fn json_escapes_and_keeps_digits() {
        let j = Json::obj(vec![("a\"b", Json::Num(0.1234567)), ("n", Json::Int(3))]);
        assert_eq!(j.render(), r#"{"a\"b": 0.1234567, "n": 3}"#);
    }
}
