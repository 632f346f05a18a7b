//! The correctness gate every measured join passes through.
//!
//! *Soundness*: each reported pair's exact NSLD (recomputed with
//! `tsj_setdist::nsld`) equals the reported distance and is within `T`.
//! *Completeness*: the pair set equals the workload's reference run. The
//! brute-force join is no oracle here: with `M` set, TSJ deliberately
//! drops high-frequency tokens, so its result is a subset of the exact one.

use tsj::SimilarPair;
use tsj_tokenize::{Corpus, StringId};

/// A join's pairs in canonical form: `(a, b, nsld bits)` sorted by `(a, b)`.
pub type Canonical = Vec<(u32, u32, u64)>;

pub fn canonical(pairs: &[SimilarPair]) -> Canonical {
    let mut c: Canonical = pairs
        .iter()
        .map(|p| (p.a.0, p.b.0, p.nsld.to_bits()))
        .collect();
    c.sort_unstable();
    c
}

/// The first way a join's output was wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// A pair the reference has and the join lost.
    Missing { a: u32, b: u32 },
    /// A pair the join reported that the reference does not have.
    Extra { a: u32, b: u32 },
    /// A pair listed twice, or not normalized to `a < b`.
    Malformed { a: u32, b: u32 },
    /// A reported distance that differs from the exact NSLD or exceeds `T`.
    WrongDistance {
        a: u32,
        b: u32,
        reported: f64,
        exact: f64,
    },
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Missing { a, b } => write!(f, "pair ({a}, {b}) missing"),
            GateError::Extra { a, b } => write!(f, "pair ({a}, {b}) not in the reference"),
            GateError::Malformed { a, b } => write!(f, "pair ({a}, {b}) duplicated or unordered"),
            GateError::WrongDistance {
                a,
                b,
                reported,
                exact,
            } => {
                write!(
                    f,
                    "pair ({a}, {b}) reports nsld {reported}, exact is {exact}"
                )
            }
        }
    }
}

/// Checks `output` against the reference pair set and the exact NSLD.
pub fn check(
    output: &Canonical,
    reference: &Canonical,
    corpus: &Corpus,
    threshold: f64,
) -> Result<(), GateError> {
    for w in output.windows(2) {
        if (w[0].0, w[0].1) >= (w[1].0, w[1].1) {
            return Err(GateError::Malformed {
                a: w[1].0,
                b: w[1].1,
            });
        }
    }
    let (mut i, mut j) = (0, 0);
    while i < output.len() || j < reference.len() {
        let got = output.get(i).map(|p| (p.0, p.1));
        let want = reference.get(j).map(|p| (p.0, p.1));
        match (got, want) {
            (Some(g), Some(r)) if g == r => (i, j) = (i + 1, j + 1),
            (Some((a, b)), Some(r)) if (a, b) < r => return Err(GateError::Extra { a, b }),
            (Some((a, b)), None) => return Err(GateError::Extra { a, b }),
            (_, Some((a, b))) => return Err(GateError::Missing { a, b }),
            (None, None) => unreachable!("loop condition"),
        }
    }
    for &(a, b, bits) in output {
        let (reported, exact) = (f64::from_bits(bits), exact_nsld(corpus, a, b));
        if a >= b || reported != exact || exact > threshold {
            return Err(GateError::WrongDistance {
                a,
                b,
                reported,
                exact,
            });
        }
    }
    Ok(())
}

fn exact_nsld(corpus: &Corpus, a: u32, b: u32) -> f64 {
    tsj_setdist::nsld(
        &corpus.token_texts(StringId(a)),
        &corpus.token_texts(StringId(b)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsj::{TsjConfig, TsjJoiner};
    use tsj_mapreduce::Cluster;
    use tsj_tokenize::NameTokenizer;

    const T: f64 = 0.2;

    fn fixture() -> (Corpus, Canonical) {
        let corpus = Corpus::build(
            [
                "barak obama",
                "barak obamma",
                "chan kalan",
                "chank alan",
                "maria garcia",
                "mariah garcia",
                "zz top",
            ],
            &NameTokenizer::default(),
        );
        let cfg = TsjConfig {
            threshold: T,
            ..TsjConfig::default()
        };
        let out = TsjJoiner::new(&Cluster::with_machines(4))
            .self_join(&corpus, &cfg)
            .unwrap();
        let reference = canonical(&out.pairs);
        assert!(reference.len() >= 3, "fixture needs several pairs");
        (corpus, reference)
    }

    #[test]
    fn accepts_the_reference_itself() {
        let (corpus, reference) = fixture();
        assert_eq!(check(&reference, &reference, &corpus, T), Ok(()));
    }

    #[test]
    fn rejects_a_dropped_pair() {
        let (corpus, reference) = fixture();
        let mut out = reference.clone();
        let (a, b, _) = out.remove(1);
        assert_eq!(
            check(&out, &reference, &corpus, T),
            Err(GateError::Missing { a, b })
        );
    }

    #[test]
    fn rejects_an_extra_pair() {
        let (corpus, reference) = fixture();
        let mut out = reference.clone();
        // "zz top" matches nothing; its pair with string 0 is not similar.
        out.push((0, 6, 0.5f64.to_bits()));
        out.sort_unstable();
        assert_eq!(
            check(&out, &reference, &corpus, T),
            Err(GateError::Extra { a: 0, b: 6 })
        );
        // An extra pair that also shadows the reference set must not pass
        // as long as the sets differ.
        let mut dup = reference.clone();
        dup.push(reference[0]);
        dup.sort_unstable();
        assert!(matches!(
            check(&dup, &reference, &corpus, T),
            Err(GateError::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_a_perturbed_distance() {
        let (corpus, reference) = fixture();
        let mut out = reference.clone();
        let (a, b, bits) = out[0];
        let perturbed = f64::from_bits(bits) + 1e-9;
        out[0].2 = perturbed.to_bits();
        assert!(matches!(
            check(&out, &reference, &corpus, T),
            Err(GateError::WrongDistance { a: ea, b: eb, .. }) if (ea, eb) == (a, b)
        ));
        // The same perturbation in the reference must not mask it either:
        // soundness is checked against the exact distance, not the oracle.
        assert!(check(&out, &out, &corpus, T).is_err());
    }
}
