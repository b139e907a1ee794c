//! The independent reference: every rule compiled on its own with
//! `Pattern::compile` and run over every whole stream with
//! `Pattern::find_ends` — no merge, shard, hybrid overlay, prefilter or
//! serving path. Served flows are compared by per-flow digests.
//!
//! The reference costs far more host time per byte than serving, so it
//! runs on all cores outside every timed region, and its digests are
//! cached on disk keyed by the executable and the exact inputs: a second
//! run of the same (workload, seed), traced or not, reuses them.

use recama::Pattern;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Order-sensitive digest of a report list: FNV-1a over `(rule, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            count: 0,
            hash: FNV_OFFSET,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl Digest {
    pub fn push(&mut self, rule: u64, end: u64) {
        self.count += 1;
        self.hash = fnv(self.hash, &rule.to_le_bytes());
        self.hash = fnv(self.hash, &end.to_le_bytes());
    }
}

/// One reference job: a rule of one set, over every stream.
struct JobResult {
    set: usize,
    rule: usize,
    anchored_end: bool,
    ends: Vec<Vec<u32>>,
}

/// Expected digests, indexed `[set][stream]`, for streams served as a
/// whole and then closed: reports in stream order (ascending end, then
/// rule), followed by the `$`-anchored finishing set in rule order.
fn expected(sets: &[Vec<String>], streams: &[Vec<u8>], threads: usize) -> Vec<Vec<Digest>> {
    // Set 0 in full; later sets only where their rule text differs
    // (same index = same rule id, same reports).
    let mut jobs = Vec::new();
    for (s, set) in sets.iter().enumerate() {
        for (i, rule) in set.iter().enumerate() {
            if s == 0 || sets[0].get(i) != Some(rule) {
                jobs.push((s, i));
            }
        }
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<JobResult>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(set, rule)) = jobs.get(j) else {
                    break;
                };
                // A rule the parser rejects is skipped by the lossy
                // build too, so it has no reports (and must not fall
                // back to the base set's rule at its index).
                let result = match Pattern::compile(&sets[set][rule]) {
                    Ok(pattern) => JobResult {
                        set,
                        rule,
                        anchored_end: pattern.parsed().anchored_end,
                        ends: streams
                            .iter()
                            .map(|s| pattern.find_ends(s).into_iter().map(|e| e as u32).collect())
                            .collect(),
                    },
                    Err(_) => JobResult {
                        set,
                        rule,
                        anchored_end: false,
                        ends: vec![Vec::new(); streams.len()],
                    },
                };
                results
                    .lock()
                    .expect("reference worker panicked")
                    .push(result);
            });
        }
    });
    let results = results.into_inner().expect("reference worker panicked");

    let mut by_key = std::collections::HashMap::new();
    for r in &results {
        by_key.insert((r.set, r.rule), r);
    }
    sets.iter()
        .enumerate()
        .map(|(s, set)| {
            streams
                .iter()
                .enumerate()
                .map(|(f, stream)| {
                    let mut live = Vec::new();
                    let mut finishing = Vec::new();
                    for i in 0..set.len() {
                        let job = by_key.get(&(s, i)).or_else(|| by_key.get(&(0, i)));
                        let Some(job) = job else { continue };
                        for &end in &job.ends[f] {
                            if job.anchored_end {
                                finishing.push(i);
                            } else {
                                live.push((end, i));
                            }
                        }
                    }
                    live.sort_unstable();
                    finishing.sort_unstable();
                    let mut d = Digest::default();
                    for (end, i) in live {
                        d.push(i as u64, u64::from(end));
                    }
                    for i in finishing {
                        d.push(i as u64, stream.len() as u64);
                    }
                    d
                })
                .collect()
        })
        .collect()
}

/// [`expected`], read from the cache under `dir` when this executable
/// has already checked these exact inputs.
pub fn expected_cached(
    dir: &Path,
    sets: &[Vec<String>],
    streams: &[Vec<u8>],
    threads: usize,
) -> std::io::Result<Vec<Vec<Digest>>> {
    let key = cache_key(sets, streams)?;
    if let Some(digests) = load(dir, key, sets.len(), streams.len()) {
        return Ok(digests);
    }
    let digests = expected(sets, streams, threads);
    if let Err(err) = store(dir, key, &digests) {
        eprintln!("perfbench: reference cache not written: {err}");
    }
    Ok(digests)
}

/// Cache key: the running executable and every input byte.
fn cache_key(sets: &[Vec<String>], streams: &[Vec<u8>]) -> std::io::Result<u64> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    let mut h = fnv(FNV_OFFSET, &exe);
    for set in sets {
        h = fnv(h, &(set.len() as u64).to_le_bytes());
        for rule in set {
            h = fnv(h, &(rule.len() as u64).to_le_bytes());
            h = fnv(h, rule.as_bytes());
        }
    }
    for s in streams {
        h = fnv(h, &(s.len() as u64).to_le_bytes());
        h = fnv(h, s);
    }
    Ok(h)
}

fn load(dir: &Path, key: u64, sets: usize, streams: usize) -> Option<Vec<Vec<Digest>>> {
    let text = std::fs::read_to_string(dir.join(format!("{key:016x}.txt"))).ok()?;
    let mut out = vec![vec![Digest::default(); streams]; sets];
    let mut seen = 0;
    for line in text.lines() {
        let v: Vec<u64> = line
            .split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        let [s, f, count, hash] = v[..] else {
            return None;
        };
        *out.get_mut(s as usize)?.get_mut(f as usize)? = Digest { count, hash };
        seen += 1;
    }
    (seen == sets * streams).then_some(out)
}

fn store(dir: &Path, key: u64, digests: &[Vec<Digest>]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut text = String::new();
    for (s, set) in digests.iter().enumerate() {
        for (f, d) in set.iter().enumerate() {
            text.push_str(&format!("{s} {f} {} {}\n", d.count, d.hash));
        }
    }
    // Write then rename, so an interrupted run leaves no partial entry.
    let tmp = dir.join(format!("{key:016x}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(tmp, dir.join(format!("{key:016x}.txt")))
}
