//! Extension beyond the paper: higher-order modulation.
//!
//! The paper's channels use four sender levels (2 bits/transaction) but
//! its own characterization finds *at least five* distinguishable
//! throttling levels (Key Conclusion 4) — and our Figure 10(b)
//! regeneration resolves all seven instruction classes. This module
//! generalizes the channel to an arbitrary level alphabet and measures
//! how many bits/transaction actually survive, trading level spacing
//! against measurement noise.

use ichannels_meter::stats::ConfusionMatrix;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::channel::{ChannelConfig, ChannelKind, SymbolRun};

/// A level alphabet: the ordered set of sender classes used as symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelAlphabet {
    classes: Vec<InstClass>,
}

impl LevelAlphabet {
    /// The paper's four levels (Figure 3).
    pub fn paper4() -> Self {
        LevelAlphabet {
            classes: InstClass::SENDER_LEVELS.to_vec(),
        }
    }

    /// Six PHI levels (all vector classes) — 2.58 bits/transaction raw.
    pub fn phi6() -> Self {
        LevelAlphabet {
            classes: vec![
                InstClass::Light128,
                InstClass::Heavy128,
                InstClass::Light256,
                InstClass::Heavy256,
                InstClass::Light512,
                InstClass::Heavy512,
            ],
        }
    }

    /// All seven classes including the scalar baseline (the "send
    /// nothing" level) — log2(7) ≈ 2.81 bits/transaction raw.
    pub fn full7() -> Self {
        LevelAlphabet {
            classes: InstClass::ALL.to_vec(),
        }
    }

    /// Creates an alphabet from explicit classes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two classes are given or any class repeats.
    pub fn new(classes: Vec<InstClass>) -> Self {
        assert!(classes.len() >= 2, "alphabet needs at least two levels");
        for (i, c) in classes.iter().enumerate() {
            assert!(!classes[..i].contains(c), "duplicate class {c} in alphabet");
        }
        LevelAlphabet { classes }
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if the alphabet is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Raw information content per transaction (bits).
    fn bits_per_symbol(&self) -> f64 {
        (self.len() as f64).log2()
    }
}

/// Evaluation of a higher-order modulation run.
#[derive(Debug, Clone)]
pub struct ExtendedEval {
    /// Levels used.
    pub levels: usize,
    /// Raw bits/transaction (log2 of the alphabet size).
    pub raw_bits_per_symbol: f64,
    /// Measured mutual information per transaction (bias-corrected).
    pub mi_bits_per_symbol: f64,
    /// Effective capacity (bits/s) = MI × symbol rate.
    pub capacity_bps: f64,
    /// Symbol error rate.
    pub ser: f64,
}

/// A multi-level covert channel over an arbitrary alphabet.
///
/// Runs through the same [`SymbolRun`] driver as
/// [`crate::channel::IChannel`], with the alphabet as its send table
/// and one single-slot run per transaction; the calibration stores one
/// mean per level.
#[derive(Debug, Clone)]
pub struct MultiLevelChannel {
    kind: ChannelKind,
    cfg: ChannelConfig,
    alphabet: LevelAlphabet,
}

impl MultiLevelChannel {
    /// Creates a multi-level channel.
    pub fn new(kind: ChannelKind, cfg: ChannelConfig, alphabet: LevelAlphabet) -> Self {
        MultiLevelChannel {
            kind,
            cfg,
            alphabet,
        }
    }

    /// The channel's driver: the alphabet is the send table (the
    /// scalar level sends nothing) and every transaction is an
    /// independent one-slot run at TSC 0 with no measurement jitter —
    /// equivalent to the slotted protocol, as each slot starts from a
    /// decayed license.
    fn symbol_run(&self) -> SymbolRun {
        let send: Vec<_> = self
            .alphabet
            .classes
            .iter()
            .map(|&c| (c != InstClass::Scalar64).then_some(c))
            .collect();
        SymbolRun::slotted(
            self.kind,
            &self.cfg,
            &send,
            self.kind.receiver_class(),
            self.cfg.receiver_loop,
        )
        .one_shot(SimTime::from_ms(5.0))
    }

    /// Runs `digits` (alphabet indices) through `run`, one re-armed
    /// SoC run per transaction, and returns the raw receiver
    /// durations. Panics (index out of bounds) on a transaction the
    /// receiver missed.
    fn run_digits(run: &mut SymbolRun, digits: &[usize]) -> Vec<u64> {
        digits
            .iter()
            .map(|&d| run.record([d as u8], |_| {})[0])
            .collect()
    }

    /// Calibrates per-level mean durations: trains each alphabet digit
    /// `reps` times and records its mean duration.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn calibrate(&self, reps: usize) -> Vec<f64> {
        assert!(reps > 0, "calibration needs at least one repetition");
        ichannels_obs::counter_add("calibration.requests", 1);
        let mut run = self.symbol_run();
        (0..self.alphabet.len())
            .map(|d| {
                let durations = MultiLevelChannel::run_digits(&mut run, &vec![d; reps]);
                durations.iter().map(|&x| x as f64).sum::<f64>() / reps as f64
            })
            .collect()
    }

    /// Nearest-mean decoding (digit 0 for empty `means`).
    pub fn decode(&self, duration: u64, means: &[f64]) -> usize {
        let d = duration as f64;
        means
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - d).abs().total_cmp(&(b.1 - d).abs()))
            .map_or(0, |(digit, _)| digit)
    }

    /// Evaluates the modulation over `n` random digits.
    pub fn evaluate(&self, means: &[f64], n: usize, seed: u64) -> ExtendedEval {
        let mut rng = SmallRng::seed_from_u64(seed);
        let digits: Vec<usize> = (0..n)
            .map(|_| rng.gen_range(0..self.alphabet.len()))
            .collect();
        let durations = MultiLevelChannel::run_digits(&mut self.symbol_run(), &digits);
        let mut m = ConfusionMatrix::new(self.alphabet.len());
        for (d, dur) in digits.iter().zip(&durations) {
            m.record(*d, self.decode(*dur, means));
        }
        let symbol_rate = 1.0 / self.cfg.slot_period.as_secs();
        ExtendedEval {
            levels: self.alphabet.len(),
            raw_bits_per_symbol: self.alphabet.bits_per_symbol(),
            mi_bits_per_symbol: m.mutual_information_bits_corrected(),
            capacity_bps: m.mutual_information_bits_corrected() * symbol_rate,
            ser: m.symbol_error_rate(),
        }
    }
}

/// Convenience: evaluate an alphabet on the same-thread channel.
pub fn evaluate_alphabet(alphabet: LevelAlphabet, n: usize, seed: u64) -> ExtendedEval {
    let ch = MultiLevelChannel::new(
        ChannelKind::Thread,
        ChannelConfig::default_cannon_lake(),
        alphabet,
    );
    let means = ch.calibrate(3);
    ch.evaluate(&means, n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabets() {
        assert_eq!(LevelAlphabet::paper4().len(), 4);
        assert_eq!(LevelAlphabet::phi6().len(), 6);
        assert_eq!(LevelAlphabet::full7().len(), 7);
        assert!((LevelAlphabet::full7().bits_per_symbol() - 2.807).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_levels_rejected() {
        let _ = LevelAlphabet::new(vec![InstClass::Heavy256, InstClass::Heavy256]);
    }

    #[test]
    fn six_levels_beat_four_in_raw_capacity() {
        let four = evaluate_alphabet(LevelAlphabet::paper4(), 40, 21);
        let six = evaluate_alphabet(LevelAlphabet::phi6(), 40, 21);
        assert!(
            four.mi_bits_per_symbol > 1.8,
            "4-level MI = {}",
            four.mi_bits_per_symbol
        );
        assert!(
            six.mi_bits_per_symbol > four.mi_bits_per_symbol,
            "6-level MI {} !> 4-level MI {}",
            six.mi_bits_per_symbol,
            four.mi_bits_per_symbol
        );
    }

    #[test]
    fn seven_levels_resolvable_on_quiet_system() {
        let seven = evaluate_alphabet(LevelAlphabet::full7(), 35, 22);
        // Some adjacent-level confusion is acceptable; the channel must
        // still clearly beat 2 bits/transaction.
        assert!(
            seven.mi_bits_per_symbol > 2.0,
            "7-level MI = {} (SER {})",
            seven.mi_bits_per_symbol,
            seven.ser
        );
    }
}
