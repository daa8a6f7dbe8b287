// Deterministic pseudo-random number generation.
//
// All stochastic parts of the simulation stack (synthetic biosignals, noise
// injection, weight initialization) draw from this xoshiro256** generator so
// that experiments are reproducible bit-for-bit across runs given a seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace iw {

/// Complete draw-position state of an Rng ("RNG cursor"). Restoring a
/// snapshot resumes the stream mid-sequence with every subsequent draw
/// bit-identical — including a Box-Muller pair split across the snapshot
/// (the cached second variate travels with the state). This is what lets a
/// fleet checkpoint cut a device's multi-month random stream at a day
/// boundary and splice it back together on resume.
struct RngSnapshot {
  std::array<std::uint64_t, 4> state{};
  std::uint64_t seed = 0;
  double cached_normal = 0.0;
  bool has_cached_normal = false;
};

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
/// Satisfies UniformRandomBitGenerator so it can also drive <random>
/// distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1f2e3d4c5b6a7988ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// The seed this generator was constructed from.
  std::uint64_t seed() const { return seed_; }

  /// Child generator for an independent stream. The child seed is derived
  /// (via splitmix64) from the *construction* seed and `stream_id` only, so
  /// substreams do not depend on how many values were drawn from the parent,
  /// and distinct stream ids give decorrelated sequences. This is what makes
  /// per-device RNG in the fleet runner independent of worker scheduling.
  Rng substream(std::uint64_t stream_id) const;

  /// Captures the full generator state at the current draw position.
  RngSnapshot snapshot() const;
  /// Reconstructs a generator that continues exactly where `snap` was taken.
  static Rng from_snapshot(const RngSnapshot& snap);

  /// Raw 64 random bits.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  /// Standard normal via Box-Muller (cached second variate).
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Exponential with the given rate (events per unit time). Requires rate > 0.
  double exponential(double rate);
  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace iw
