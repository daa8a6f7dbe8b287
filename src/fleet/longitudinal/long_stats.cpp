#include "fleet/longitudinal/long_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace iw::fleet {
namespace {

constexpr std::uint32_t kStatsMagic = 0x4c475354u;  // "LGST"
constexpr std::uint32_t kStatsVersion = 1;

/// FNV-1a over a span of u64 values (fed byte-wise, little-endian) — the
/// serialize() digest that pins every histogram bin without printing all of
/// them.
std::uint64_t fnv1a_u64(const std::uint64_t* values, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = values[i];
    for (int b = 0; b < 8; ++b) {
      h ^= v & 0xffu;
      h *= 0x100000001b3ULL;
      v >>= 8;
    }
  }
  return h;
}

}  // namespace

LongitudinalStats::LongitudinalStats(int days, int soc_bins)
    : days_(days), soc_bins_(soc_bins) {
  ensure(days >= 1, "LongitudinalStats: need at least one day");
  ensure(soc_bins >= 2, "LongitudinalStats: need at least two SoC bins");
  const std::size_t cells =
      static_cast<std::size_t>(days) * static_cast<std::size_t>(kNumWearerProfiles);
  cells_.assign(cells, DayCounters{});
  bins_.assign(cells * static_cast<std::size_t>(soc_bins), 0);
}

std::int64_t LongitudinalStats::quantize_j(double j) {
  return std::llround(j * 65536.0);
}

double LongitudinalStats::dequantize_j(std::int64_t q) {
  return static_cast<double>(q) * 0x1.0p-16;
}

std::size_t LongitudinalStats::cell_index(int day, int profile) const {
  ensure(day >= 1 && day <= days_, "LongitudinalStats: day out of range");
  ensure(profile >= 0 && profile < kNumWearerProfiles,
         "LongitudinalStats: profile out of range");
  return static_cast<std::size_t>(day - 1) *
             static_cast<std::size_t>(kNumWearerProfiles) +
         static_cast<std::size_t>(profile);
}

std::size_t LongitudinalStats::bin_base(int day, int profile) const {
  return cell_index(day, profile) * static_cast<std::size_t>(soc_bins_);
}

int LongitudinalStats::bin_of(double soc) const {
  // Clamp first: carry-over SoC can legitimately sit a rounding ulp outside
  // [0, 1] (see LipoBattery::restore_soc), and those states belong in the
  // edge bins, not out of range.
  if (!(soc > 0.0)) return 0;  // also catches NaN deterministically
  if (soc >= 1.0) return soc_bins_ - 1;
  const int bin = static_cast<int>(soc * static_cast<double>(soc_bins_));
  return std::min(bin, soc_bins_ - 1);
}

void LongitudinalStats::record_device_day(int day, const DeviceOutcome& outcome) {
  const std::size_t cell = cell_index(day, static_cast<int>(outcome.profile));
  DayCounters& c = cells_[cell];
  c.devices += 1;
  c.self_sustaining += outcome.self_sustaining ? 1 : 0;
  c.detections_attempted += outcome.detections_attempted;
  c.detections_completed += outcome.detections_completed;
  c.detections_skipped += outcome.detections_skipped;
  c.classified += outcome.classified;
  c.harvested_qj += quantize_j(outcome.harvested_j);
  c.consumed_qj += quantize_j(outcome.consumed_j);
  bins_[cell * static_cast<std::size_t>(soc_bins_) +
        static_cast<std::size_t>(bin_of(outcome.final_soc))] += 1;
}

void LongitudinalStats::merge(const LongitudinalStats& other) {
  if (other.days_ == 0) return;
  if (days_ == 0) {
    *this = other;
    return;
  }
  ensure(days_ == other.days_ && soc_bins_ == other.soc_bins_,
         "LongitudinalStats::merge: shape mismatch");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    DayCounters& c = cells_[i];
    const DayCounters& o = other.cells_[i];
    c.devices += o.devices;
    c.self_sustaining += o.self_sustaining;
    c.detections_attempted += o.detections_attempted;
    c.detections_completed += o.detections_completed;
    c.detections_skipped += o.detections_skipped;
    c.classified += o.classified;
    c.harvested_qj += o.harvested_qj;
    c.consumed_qj += o.consumed_qj;
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
}

LongitudinalStats::DayCounters LongitudinalStats::day_counters(int day) const {
  DayCounters sum;
  for (int p = 0; p < kNumWearerProfiles; ++p) {
    const DayCounters& c = cells_[cell_index(day, p)];
    sum.devices += c.devices;
    sum.self_sustaining += c.self_sustaining;
    sum.detections_attempted += c.detections_attempted;
    sum.detections_completed += c.detections_completed;
    sum.detections_skipped += c.detections_skipped;
    sum.classified += c.classified;
    sum.harvested_qj += c.harvested_qj;
    sum.consumed_qj += c.consumed_qj;
  }
  return sum;
}

LongitudinalStats::DayCounters LongitudinalStats::day_counters(
    int day, WearerProfile profile) const {
  return cells_[cell_index(day, static_cast<int>(profile))];
}

double LongitudinalStats::fraction_self_sustaining(int day) const {
  const DayCounters c = day_counters(day);
  if (c.devices == 0) return 0.0;
  return static_cast<double>(c.self_sustaining) / static_cast<double>(c.devices);
}

namespace {

double quantile_of_bins(const std::uint64_t* bins, int num_bins, double q) {
  std::uint64_t n = 0;
  for (int b = 0; b < num_bins; ++b) n += bins[b];
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::floor(q * static_cast<double>(n - 1)));
  std::uint64_t cum = 0;
  for (int b = 0; b < num_bins; ++b) {
    cum += bins[b];
    if (cum > rank) {
      return (static_cast<double>(b) + 0.5) / static_cast<double>(num_bins);
    }
  }
  return 1.0;  // unreachable: cum == n > rank by the loop's end
}

}  // namespace

double LongitudinalStats::soc_quantile(int day, double q) const {
  // Sum the archetype histograms for the day (they share the bin grid).
  std::vector<std::uint64_t> merged(static_cast<std::size_t>(soc_bins_), 0);
  for (int p = 0; p < kNumWearerProfiles; ++p) {
    const std::size_t base = bin_base(day, p);
    for (int b = 0; b < soc_bins_; ++b) {
      merged[static_cast<std::size_t>(b)] += bins_[base + static_cast<std::size_t>(b)];
    }
  }
  return quantile_of_bins(merged.data(), soc_bins_, q);
}

double LongitudinalStats::soc_quantile(int day, double q,
                                       WearerProfile profile) const {
  const std::size_t base = bin_base(day, static_cast<int>(profile));
  return quantile_of_bins(bins_.data() + base, soc_bins_, q);
}

std::string LongitudinalStats::serialize() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "longstats days=%d bins=%d\n", days_, soc_bins_);
  out += buf;
  for (int day = 1; day <= days_; ++day) {
    const DayCounters c = day_counters(day);
    std::snprintf(buf, sizeof buf,
                  "day %d dev=%llu ss=%llu att=%llu ok=%llu skip=%llu cls=%llu "
                  "harv_q=%lld cons_q=%lld p50=%.17g p99=%.17g",
                  day, static_cast<unsigned long long>(c.devices),
                  static_cast<unsigned long long>(c.self_sustaining),
                  static_cast<unsigned long long>(c.detections_attempted),
                  static_cast<unsigned long long>(c.detections_completed),
                  static_cast<unsigned long long>(c.detections_skipped),
                  static_cast<unsigned long long>(c.classified),
                  static_cast<long long>(c.harvested_qj),
                  static_cast<long long>(c.consumed_qj),
                  soc_quantile(day, 0.5), soc_quantile(day, 0.99));
    out += buf;
    // Per-archetype digest: counters hash would hide which field moved, so
    // print the cell counters raw and digest only the bins.
    for (int p = 0; p < kNumWearerProfiles; ++p) {
      const DayCounters& cc = cells_[cell_index(day, p)];
      const std::uint64_t digest = fnv1a_u64(
          bins_.data() + bin_base(day, p), static_cast<std::size_t>(soc_bins_));
      std::snprintf(buf, sizeof buf, " | p%d:%llu,%llu,%llu,%llu,%llu,%llu,%lld,%lld,%016llx",
                    p, static_cast<unsigned long long>(cc.devices),
                    static_cast<unsigned long long>(cc.self_sustaining),
                    static_cast<unsigned long long>(cc.detections_attempted),
                    static_cast<unsigned long long>(cc.detections_completed),
                    static_cast<unsigned long long>(cc.detections_skipped),
                    static_cast<unsigned long long>(cc.classified),
                    static_cast<long long>(cc.harvested_qj),
                    static_cast<long long>(cc.consumed_qj),
                    static_cast<unsigned long long>(digest));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

void LongitudinalStats::save(ByteWriter& out) const {
  out.u32(kStatsMagic);
  out.u32(kStatsVersion);
  out.u32(static_cast<std::uint32_t>(days_));
  out.u32(static_cast<std::uint32_t>(soc_bins_));
  for (const DayCounters& c : cells_) {
    out.u64(c.devices);
    out.u64(c.self_sustaining);
    out.u64(c.detections_attempted);
    out.u64(c.detections_completed);
    out.u64(c.detections_skipped);
    out.u64(c.classified);
    out.i64(c.harvested_qj);
    out.i64(c.consumed_qj);
  }
  for (const std::uint64_t b : bins_) out.u64(b);
}

LongitudinalStats LongitudinalStats::load(ByteReader& in) {
  ensure(in.u32() == kStatsMagic, "LongitudinalStats::load: bad magic");
  ensure(in.u32() == kStatsVersion, "LongitudinalStats::load: unsupported version");
  const std::uint32_t days = in.u32();
  const std::uint32_t soc_bins = in.u32();
  ensure(days >= 1 && days <= 1u << 20, "LongitudinalStats::load: bad day count");
  ensure(soc_bins >= 2 && soc_bins <= 1u << 16,
         "LongitudinalStats::load: bad bin count");
  LongitudinalStats stats(static_cast<int>(days), static_cast<int>(soc_bins));
  for (DayCounters& c : stats.cells_) {
    c.devices = in.u64();
    c.self_sustaining = in.u64();
    c.detections_attempted = in.u64();
    c.detections_completed = in.u64();
    c.detections_skipped = in.u64();
    c.classified = in.u64();
    c.harvested_qj = in.i64();
    c.consumed_qj = in.i64();
  }
  for (std::uint64_t& b : stats.bins_) b = in.u64();
  return stats;
}

}  // namespace iw::fleet
