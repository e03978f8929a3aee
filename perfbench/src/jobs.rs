//! The requests the screening workloads upload, their reference verdicts,
//! and the audit that compares every returned score with its reference.

use dsig_core::{AcceptanceBand, RetestPolicy, Signature, TestOutcome};
use dsig_serve::proto::{
    decode_multi_request, decode_request, decode_response, decode_retest_request, decode_retest_response,
    encode_multi_request, encode_request, encode_response, encode_retest_request, encode_retest_response,
};
use dsig_serve::{RetestItem, RetestRequest, RetestResponse, RetestScore, ScoreResult, Screen, ScreenResponse};

/// The reference verdict of one scored item: the exact NDF bits and the
/// PASS/FAIL outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub ndf_bits: u64,
    pub outcome: TestOutcome,
}

impl Verdict {
    pub fn new(ndf: f64, outcome: TestOutcome) -> Self {
        Verdict {
            ndf_bits: ndf.to_bits(),
            outcome,
        }
    }

    /// The local single-shot verdict of `observed` against `golden`.
    pub fn score(golden: &Signature, band: &AcceptanceBand, observed: &Signature) -> dsig_core::Result<Self> {
        let ndf = dsig_core::ndf(golden, observed)?;
        Ok(Verdict::new(ndf, band.decide(ndf)))
    }

    /// The local retest verdict: single shot, then the policy's escalation
    /// walk over the carried repeats.
    pub fn retest(
        golden: &Signature,
        band: &AcceptanceBand,
        policy: &RetestPolicy,
        item: &RetestItem,
    ) -> dsig_core::Result<Self> {
        let initial = dsig_core::ndf(golden, &item.initial)?;
        let repeats: Vec<f64> = item
            .repeats
            .iter()
            .map(|r| dsig_core::ndf(golden, r))
            .collect::<dsig_core::Result<_>>()?;
        let verdict = policy.escalate(band, initial, &repeats);
        Ok(Verdict::new(verdict.ndf, verdict.outcome))
    }
}

/// Number of returned verdicts that differ from their references in any NDF
/// bit or in the outcome; a length mismatch counts every missing or surplus
/// item as wrong.
pub fn count_wrong(expected: &[Verdict], got: &[Verdict]) -> usize {
    let differing = expected.iter().zip(got).filter(|(e, g)| e != g).count();
    differing + expected.len().abs_diff(got.len())
}

/// One upload of the screening workloads, in one of the three request
/// families it exercises.
#[derive(Debug, Clone)]
pub enum Upload {
    /// `DSRQ`: every signature against one golden.
    Screen { key: u64, signatures: Vec<Signature> },
    /// `DSRM`: each signature names its own golden.
    Multi { items: Vec<(u64, Signature)> },
    /// `DSRT`: single shots plus repeats, re-decided server-side.
    Retest(RetestRequest),
}

/// An upload with the reference verdict of each of its items.
#[derive(Debug, Clone)]
pub struct Job {
    pub upload: Upload,
    pub expected: Vec<Verdict>,
}

fn verdicts_of(scores: &[ScoreResult]) -> Vec<Verdict> {
    scores.iter().map(|s| Verdict::new(s.ndf, s.outcome)).collect()
}

fn retest_verdicts_of(scores: &[RetestScore]) -> Vec<Verdict> {
    scores
        .iter()
        .map(|s| Verdict::new(s.score.ndf, s.score.outcome))
        .collect()
}

impl Job {
    /// Verdicts this job asks for (signatures, or devices for a retest).
    pub fn items(&self) -> usize {
        self.expected.len()
    }

    /// Sends the upload through any screening surface (client or handle,
    /// serving or routing tier) and returns the verdicts it answered.
    pub fn send<S: Screen>(&self, peer: &mut S) -> Result<Vec<Verdict>, S::Error> {
        Ok(match &self.upload {
            Upload::Screen { key, signatures } => verdicts_of(&peer.screen(*key, signatures)?),
            Upload::Multi { items } => verdicts_of(&peer.screen_multi(items)?),
            Upload::Retest(request) => retest_verdicts_of(&peer.screen_retest(request)?),
        })
    }

    /// Encodes and decodes the request and its response payloads with the
    /// wire codec, as client and server each do once per upload. Returns the
    /// payload bytes moved, or an error when a payload fails to round-trip.
    pub fn codec_round_trip(&self) -> Result<usize, String> {
        let scores: Vec<ScoreResult> = self
            .expected
            .iter()
            .map(|v| ScoreResult {
                ndf: f64::from_bits(v.ndf_bits),
                peak_hamming: 0,
                outcome: v.outcome,
            })
            .collect();
        let (request_bytes, response_bytes) = match &self.upload {
            Upload::Screen { key, signatures } => {
                let request = encode_request(*key, signatures);
                let decoded = decode_request(&request).map_err(|e| e.to_string())?;
                check(decoded.signatures.len() == signatures.len(), "DSRQ")?;
                let response = encode_response(&ScreenResponse::Results(scores));
                check(decode_response(&response).is_ok(), "DSRS")?;
                (request.len(), response.len())
            }
            Upload::Multi { items } => {
                let request = encode_multi_request(items);
                let decoded = decode_multi_request(&request).map_err(|e| e.to_string())?;
                check(decoded.items.len() == items.len(), "DSRM")?;
                let response = encode_response(&ScreenResponse::Results(scores));
                check(decode_response(&response).is_ok(), "DSRS")?;
                (request.len(), response.len())
            }
            Upload::Retest(retest) => {
                let request = encode_retest_request(retest);
                let decoded = decode_retest_request(&request).map_err(|e| e.to_string())?;
                check(decoded.items.len() == retest.items.len(), "DSRT")?;
                let results = scores
                    .into_iter()
                    .map(|score| RetestScore {
                        score,
                        marginal: false,
                        flipped: false,
                        repeats_used: 0,
                    })
                    .collect();
                let response = encode_retest_response(&RetestResponse::Results(results));
                check(decode_retest_response(&response).is_ok(), "DSRR")?;
                (request.len(), response.len())
            }
        };
        Ok(request_bytes + response_bytes)
    }
}

fn check(ok: bool, family: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{family} payload did not round-trip"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{SignatureEntry, ZoneCode};

    fn sig(codes: &[(u32, f64)]) -> Signature {
        Signature::new(
            codes
                .iter()
                .map(|&(code, duration)| SignatureEntry {
                    code: ZoneCode(code),
                    duration,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn audit_catches_one_flipped_ndf_bit() {
        let golden = sig(&[(0b001, 2e-6), (0b011, 3e-6), (0b010, 5e-6)]);
        let observed = sig(&[(0b001, 2.5e-6), (0b011, 2.5e-6), (0b110, 5e-6)]);
        let band = AcceptanceBand::new(0.03).unwrap();
        let reference = Verdict::score(&golden, &band, &observed).unwrap();
        assert!(f64::from_bits(reference.ndf_bits) > 0.0);
        let expected = vec![reference; 4];

        let mut got = expected.clone();
        assert_eq!(count_wrong(&expected, &got), 0);
        // Flip the least significant mantissa bit of one NDF: same outcome,
        // a value that differs in the 16th digit — still a wrong verdict.
        got[2].ndf_bits ^= 1;
        assert_eq!(got[2].outcome, expected[2].outcome);
        assert_eq!(count_wrong(&expected, &got), 1);
        // A flipped outcome with identical NDF bits is wrong too.
        let mut flipped = expected.clone();
        flipped[0].outcome = match flipped[0].outcome {
            TestOutcome::Pass => TestOutcome::Fail,
            TestOutcome::Fail => TestOutcome::Pass,
        };
        assert_eq!(count_wrong(&expected, &flipped), 1);
        // Missing answers count as wrong.
        assert_eq!(count_wrong(&expected, &got[..1]), 3);
    }

    #[test]
    fn codec_round_trip_covers_every_family() {
        let a = sig(&[(1, 1e-6), (3, 1e-6)]);
        let b = sig(&[(1, 1.5e-6), (2, 0.5e-6)]);
        let band = AcceptanceBand::new(0.03).unwrap();
        let expected = vec![Verdict::score(&a, &band, &b).unwrap(); 2];
        let policy = RetestPolicy::new(0.01, vec![2]).unwrap();
        let uploads = [
            Upload::Screen {
                key: 5,
                signatures: vec![b.clone(), a.clone()],
            },
            Upload::Multi {
                items: vec![(5, b.clone()), (6, a.clone())],
            },
            Upload::Retest(RetestRequest {
                golden_key: 5,
                policy,
                items: vec![
                    RetestItem {
                        initial: b.clone(),
                        repeats: vec![b.clone(), b.clone()],
                    },
                    RetestItem {
                        initial: a.clone(),
                        repeats: Vec::new(),
                    },
                ],
            }),
        ];
        for upload in uploads {
            let job = Job {
                upload,
                expected: expected.clone(),
            };
            assert!(job.codec_round_trip().unwrap() > 0);
            assert_eq!(job.items(), 2);
        }
    }
}
