// Implementation of the SIMD cohort day kernel, written against the pack
// interface of common/simd.hpp and instantiated twice: with f64x4 by the
// AVX2 translation unit (cohort_simd_avx2.cpp) and with f64x8 by the AVX-512
// one (cohort_simd_avx512.cpp). Both run this one vector schedule; only the
// pack width differs.
//
// Bit-exactness argument. The kernel is the register-resident lane kernel of
// device.cpp (run_cohort_reg_lanes) with the per-lane loops turned into
// vector statements across W independent lanes:
//
//   * Every arithmetic statement is the same IEEE-754 expression, in the
//     same order, on the same per-lane operands as the scalar kernel.
//     Vector add/sub/mul/div are correctly rounded per lane, so each lane's
//     bits equal the scalar chain's bits. Each tier TU is compiled with
//     -ffp-contract=off, so the compiler cannot fuse a mul+add the scalar
//     kernel keeps separate (and the scalar kernel's own TU never enables
//     FMA, so neither side contracts).
//   * std::min sites map to V::stdmin, which reproduces std::min's tie
//     behaviour exactly (see simd.hpp).
//   * Scalar *skip branches* become mask+blend: the masked arithmetic runs
//     unconditionally, and select() merges the *exact bits* of the
//     would-have-skipped lanes back in. A blend is used even where the
//     arithmetic looks like a no-op identity, because it is not one in every
//     corner (e.g. the sleep drain on a lane with sleep_power_w == 0 whose
//     SoC sits one rounding ulp below zero would move the SoC; the scalar
//     kernel skips it, so the vector kernel must blend it away).
//   * The OCV interpolation picks its bracket with the same `1 + Σ(soc >
//     breakpoint)` census as lipo_ocv_at, realized as a select ladder over
//     four constant tables. The bracket *differences* are compile-time
//     constant subtractions of the same curve values the scalar code
//     subtracts at runtime — the same correctly-rounded results, never an
//     additively re-derived approximation.
//   * Detection drains, three per-pack modes:
//       - Lockstep: lanes sharing the fixed-period stream (null policy,
//         equal period) have identical event clocks by construction — equal
//         detect_t/sequence state at day start, advanced by identical
//         updates — so the whole pack's attempts fire in lockstep and the
//         attempt body vectorizes with the same mask/blend discipline.
//       - Due rounds: packs homogeneous in policy *kind* (all
//         soc-proportional, all energy-neutral, all fixed-eval, or all null
//         with differing periods) but with divergent clocks process one
//         attempt round at a time: a scalar census picks the lanes whose
//         next event fires before the pending tick (the exact engine
//         condition, FIFO ties included), the attempt body and the policy
//         interval math run as vectors, and blends confine every effect to
//         the due lanes. The built-in policy formulas are already
//         select-based straight-line arithmetic (see scheduler.hpp), so
//         they vectorize operation for operation. Lanes are independent, so
//         interleaving different lanes' attempt sequences preserves each
//         lane's own event order — the bits cannot tell.
//       - Scalar: packs mixing policy kinds (sort-boundary packs), custom
//         (opaque) policies, or an energy-neutral lane with a non-positive
//         detection energy (whose first attempt must throw exactly like the
//         scalar path) keep a per-lane scalar drain that is a verbatim copy
//         of the scalar kernel's, behind a vector "any lane due?" pre-check
//         that is a strict superset of the fire condition.
//   * Intake: a pack whose lanes all run on one profile shape (the cohort
//     sort clusters them) copies its lanes' per-segment intakes once per
//     block into a lane-major [segment][lane] table and loads each tick's
//     intake as one vector; mixed-shape packs gather per lane. Both read the
//     same doubles from the same per-lane tables.
//
// The rare exact-gate evaluation (SoC inside the bisected window) and the
// policy interval math still run through the single shared scalar
// definitions (LipoBattery::stored_energy_j, policy_interval_s), exactly as
// the scalar kernel does.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "platform/day_kernel.hpp"
#include "platform/scheduler.hpp"
#include "power/battery.hpp"

namespace iw::platform::detail {

/// Per-bracket constants of the OCV curve, as compile-time values: the lower
/// breakpoint, its voltage, and the bracket differences. The differences are
/// constexpr subtractions of the same kOcvCurve values lipo_ocv_at subtracts
/// at runtime — correct rounding makes them the identical doubles.
struct OcvBracket {
  double lo_soc;
  double lo_v;
  double dsoc;
  double dv;
};

inline constexpr std::array<OcvBracket, 6> kOcvBrackets = [] {
  std::array<OcvBracket, 6> b{};
  for (std::size_t j = 0; j < 6; ++j) {
    b[j].lo_soc = pwr::detail::kOcvCurve[j].soc;
    b[j].lo_v = pwr::detail::kOcvCurve[j].voltage;
    b[j].dsoc = pwr::detail::kOcvCurve[j + 1].soc - pwr::detail::kOcvCurve[j].soc;
    b[j].dv = pwr::detail::kOcvCurve[j + 1].voltage - pwr::detail::kOcvCurve[j].voltage;
  }
  return b;
}();

/// lipo_ocv_at on W lanes. Clamp as two selects (bit-preserving, e.g. a
/// -0.0 input passes through exactly as std::clamp leaves it), bracket by
/// select ladder, then the same (soc - lo) / dsoc interpolation.
template <class V>
inline V ocv_lanes(V x) {
  using M = typename V::Mask;
  const V zero = V::broadcast(0.0);
  const V one = V::broadcast(1.0);
  x = V::select(V::lt(x, zero), zero, x);
  x = V::select(V::lt(one, x), one, x);
  V lo_soc = V::broadcast(kOcvBrackets[0].lo_soc);
  V lo_v = V::broadcast(kOcvBrackets[0].lo_v);
  V dsoc = V::broadcast(kOcvBrackets[0].dsoc);
  V dv = V::broadcast(kOcvBrackets[0].dv);
  for (std::size_t j = 1; j < 6; ++j) {
    const M m = V::gt(x, V::broadcast(kOcvBrackets[j].lo_soc));
    lo_soc = V::select(m, V::broadcast(kOcvBrackets[j].lo_soc), lo_soc);
    lo_v = V::select(m, V::broadcast(kOcvBrackets[j].lo_v), lo_v);
    dsoc = V::select(m, V::broadcast(kOcvBrackets[j].dsoc), dsoc);
    dv = V::select(m, V::broadcast(kOcvBrackets[j].dv), dv);
  }
  const V frac = (x - lo_soc) / dsoc;
  return lo_v + frac * dv;
}

/// std::clamp(x, lo, hi) per lane, in std::clamp's exact comparison order
/// (x < lo decides first, then hi < x), preserving the untouched x bits in
/// the pass-through case.
template <class V>
inline V clamp_lanes(V x, V lo, V hi) {
  return V::select(V::lt(x, lo), lo, V::select(V::lt(hi, x), hi, x));
}

/// detail::soc_proportional_interval_s on W lanes: the same select-based
/// straight-line arithmetic, with per-lane policy parameters. a/b = min/max
/// rate per minute, c/d = low/high water SoC.
template <class V>
inline V soc_proportional_lanes(V a, V b, V c, V d, V soc) {
  const V frac = (soc - c) / (d - c);
  V rate = a + frac * (b - a);
  rate = V::select(V::le(soc, c), V::broadcast(0.1) * a, rate);
  rate = V::select(V::ge(soc, d), b, rate);
  return V::broadcast(60.0) / rate;
}

/// The SoC-independent prefix of detail::energy_neutral_interval_s on W
/// lanes: the sustainable rate `margin * intake / need * 60`. A drain
/// evaluates it once, since neither the smoothed intake nor the need changes
/// inside one. The callers guarantee need > 0 on every lane of the pack
/// (packs violating it take the scalar drain so the scalar ensure() fires
/// exactly as before).
template <class V>
inline V energy_neutral_rate_lanes(V margin, V intake, V need) {
  return margin * intake / need * V::broadcast(60.0);
}

/// The rest of detail::energy_neutral_interval_s on W lanes, from that
/// prefix. b/c = min/max rate per minute, d = target SoC.
template <class V>
inline V energy_neutral_lanes(V rate, V b, V c, V d, V soc) {
  const V soc_error = soc - d;
  rate = rate * clamp_lanes<V>(V::broadcast(1.0) + soc_error, V::broadcast(0.5),
                               V::broadcast(1.5));
  rate = clamp_lanes<V>(rate, b, c);
  return V::broadcast(60.0) / rate;
}

/// One block of N = W * P register-eligible lanes through a whole day.
/// Mirrors run_cohort_reg_lanes<N> statement for statement; see the header
/// comment for the vectorization rules.
template <class V, int P>
void run_cohort_simd_block(const CohortGroupRefs& refs, const std::size_t* ids) {
  using M = typename V::Mask;
  using U = typename V::U;
  constexpr int W = V::kWidth;
  constexpr int N = W * P;
  constexpr unsigned kFull = (1u << W) - 1u;
  // Segment cap of the lane-major intake tables; a shape-uniform pack whose
  // profile has more segments gathers like a mixed pack.
  constexpr std::uint32_t kMaxPackSegments = 16;

  CohortPackStats stats;
  DayState* day[N];
  const std::uint32_t* segs[N];
  const double* intake[N];
  const DetectionPolicy* pol[N];
  PolicyEval pev[N];
  // Hoisted per-lane constants — each the exact expression the per-op scalar
  // code evaluates from the same operands (see run_cohort_reg_lanes). The
  // lane arrays are cache-line aligned, so no pack load splits a line.
  alignas(64) double cap_c[N], eff[N], tick_s[N], sleep_w[N], det_pw[N], det_dur[N];
  alignas(64) double need[N], complete[N], gate_lo[N], gate_hi[N], period[N];
  alignas(64) double peva[N], pevb[N], pevc[N], pevd[N];
  // Day state, lane-major so every pack is one contiguous vector.
  alignas(64) double soc[N], v[N], sm[N], min_soc[N], harvested[N], consumed[N];
  alignas(64) double detect_t[N];
  std::uint64_t attempted[N], completed[N], skipped[N];
  std::uint64_t dseq[N], hseq[N], nseq[N];
  std::uint8_t alive[N];

  for (int i = 0; i < N; ++i) {
    const std::size_t lane = ids[i];
    day[i] = &refs.lanes[lane];
    segs[i] = refs.seg_tables[lane];
    intake[i] = refs.intake_tables[lane];
    pol[i] = refs.policies[lane];
    pev[i] = refs.policy_evals[lane];
    peva[i] = pev[i].a;
    pevb[i] = pev[i].b;
    pevc[i] = pev[i].c;
    pevd[i] = pev[i].d;
    const DeviceConfig& cfg = *day[i]->config;
    cap_c[i] = units::mah_to_coulombs(cfg.battery.capacity_mah);
    eff[i] = cfg.battery.charge_efficiency;
    tick_s[i] = cfg.harvest_tick_s;
    sleep_w[i] = cfg.sleep_power_w;
    det_pw[i] = day[i]->detection_power_w;
    det_dur[i] = cfg.detection.duration_s;
    need[i] = day[i]->detection_need_j;
    complete[i] = day[i]->detection_complete_j;
    gate_lo[i] = day[i]->gate.lo_soc;
    gate_hi[i] = day[i]->gate.hi_soc;
    period[i] = cfg.detection_period_s;
    soc[i] = day[i]->battery.soc();
    v[i] = pwr::detail::lipo_ocv_at(soc[i]);
    sm[i] = day[i]->smoothed_intake_w;
    const DaySimulationResult& r = *day[i]->result;
    min_soc[i] = r.min_soc;
    harvested[i] = r.harvested_j;
    consumed[i] = r.consumed_j;
    attempted[i] = r.detections_attempted;
    completed[i] = r.detections_completed;
    skipped[i] = r.detections_skipped;
    detect_t[i] = refs.detect_t[lane];
    dseq[i] = refs.detect_seq[lane];
    hseq[i] = refs.harvest_seq[lane];
    nseq[i] = refs.next_seq[lane];
    alive[i] = refs.detect_alive[lane];
  }
  const double horizon = day[0]->horizon;  // group-shared by construction

  // Pack classification (see the header comment): lockstep fixed-period
  // packs drain as one clock, policy-kind-homogeneous packs drain in masked
  // due rounds, everything else drains per lane. The sleep mask is a
  // per-day constant.
  enum class PackMode : std::uint8_t { kLockstep, kRounds, kScalar };
  enum class PackPolicy : std::uint8_t { kNull, kFixedEval, kSocProp, kEnergyNeutral };
  PackMode mode[P];
  PackPolicy ppol[P];
  M sleep_m[P];
  unsigned sleep_bits[P];
  // Shape-uniform packs (every lane on one tick->segment table, segment
  // count within the cap) read each tick's intake as one vector from a
  // lane-major [segment][lane] copy of their lanes' intake tables.
  bool uniform[P];
  alignas(64) double pack_intake[P][kMaxPackSegments * W];
  for (int p = 0; p < P; ++p) {
    const int base = p * W;
    const std::uint32_t shape = refs.shape_ids[ids[base]];
    const std::uint32_t nseg = refs.shape_segments[shape];
    uniform[p] = nseg <= kMaxPackSegments;
    for (int w = 1; w < W; ++w) {
      uniform[p] = uniform[p] && refs.shape_ids[ids[base + w]] == shape;
    }
    if (uniform[p]) {
      ++stats.uniform_packs;
      for (std::uint32_t sg = 0; sg < nseg; ++sg) {
        for (int w = 0; w < W; ++w) pack_intake[p][sg * W + w] = intake[base + w][sg];
      }
    }
    bool lockstep = true;
    bool all_null = true;
    bool kind_uniform = true;
    bool all_need_pos = true;
    for (int w = 0; w < W; ++w) {
      const int i = base + w;
      lockstep = lockstep && pol[i] == nullptr && period[i] == period[base] &&
                 detect_t[i] == detect_t[base] && dseq[i] == dseq[base] &&
                 hseq[i] == hseq[base] && nseq[i] == nseq[base] &&
                 alive[i] == alive[base];
      all_null = all_null && pol[i] == nullptr;
      kind_uniform = kind_uniform && pol[i] != nullptr &&
                     pev[i].kind == pev[base].kind;
      all_need_pos = all_need_pos && need[i] > 0.0;
    }
    if (lockstep) {
      mode[p] = PackMode::kLockstep;
      ppol[p] = PackPolicy::kNull;
      ++stats.lockstep_packs;
    } else if (all_null) {
      mode[p] = PackMode::kRounds;
      ppol[p] = PackPolicy::kNull;
    } else if (kind_uniform && pev[base].kind == PolicyEval::Kind::kFixedRate) {
      mode[p] = PackMode::kRounds;
      ppol[p] = PackPolicy::kFixedEval;
    } else if (kind_uniform && pev[base].kind == PolicyEval::Kind::kSocProportional) {
      mode[p] = PackMode::kRounds;
      ppol[p] = PackPolicy::kSocProp;
    } else if (kind_uniform && pev[base].kind == PolicyEval::Kind::kEnergyNeutral &&
               all_need_pos) {
      mode[p] = PackMode::kRounds;
      ppol[p] = PackPolicy::kEnergyNeutral;
    } else {
      mode[p] = PackMode::kScalar;
      ppol[p] = PackPolicy::kNull;
    }
    if (mode[p] == PackMode::kRounds) ++stats.rounds_packs;
    if (mode[p] == PackMode::kScalar) ++stats.scalar_packs;
    sleep_m[p] = V::gt(V::load(sleep_w + base), V::broadcast(0.0));
    sleep_bits[p] = V::mask_bits(sleep_m[p]);
  }

  // Verbatim copy of the scalar kernel's drain lambda (per-lane, any policy).
  const auto drain_lane = [&](int i, bool pending, double t) {
    if (alive[i] == 0) return;
    if (!(detect_t[i] <= horizon) ||
        (pending &&
         !(detect_t[i] < t || (detect_t[i] == t && dseq[i] < hseq[i])))) {
      return;
    }
    do {
      ++attempted[i];
      const double s = soc[i];
      bool has_energy;
      if (s > gate_hi[i]) {
        has_energy = true;
      } else if (s < gate_lo[i]) {
        has_energy = false;
      } else {
        day[i]->battery.restore_soc(s);
        has_energy = day[i]->battery.stored_energy_j() >= need[i];
      }
      bool fired = false;
      if (has_energy && !(s <= 0.0)) {
        const double current_a = det_pw[i] / v[i];
        const double want_c = current_a * det_dur[i];
        const double have_c = s * cap_c[i];
        const double delta_c = std::min(want_c, have_c);
        soc[i] = s - delta_c / cap_c[i];
        v[i] = pwr::detail::lipo_ocv_at(soc[i]);
        const double got = delta_c * v[i];
        consumed[i] += got;
        if (got >= complete[i]) {
          ++completed[i];
          fired = true;
        }
      }
      if (!fired) ++skipped[i];
      if (pol[i] != nullptr) {
        SchedulerState state;
        state.soc = soc[i];
        state.recent_intake_w = sm[i];
        state.detection_energy_j = need[i];
        const double interval = policy_interval_s(pev[i], *pol[i], state);
        ensure(interval > 0.0, "detection policy returned non-positive interval");
        if (detect_t[i] + interval > horizon) alive[i] = 0;
        dseq[i] = nseq[i]++;
        detect_t[i] += interval;
      } else {
        dseq[i] = nseq[i]++;
        detect_t[i] += period[i];
      }
    } while (alive[i] != 0 && detect_t[i] <= horizon &&
             (!pending ||
              detect_t[i] < t || (detect_t[i] == t && dseq[i] < hseq[i])));
  };

  // Whole-pack drain for lockstep fixed-period packs: the scalar drain with
  // lane state W-wide and both the attempt body and the stream bookkeeping
  // vectorized. Every lane's clock/sequence copies are equal by the lockstep
  // classification, so the loop conditions run on a lane-`base` scalar mirror
  // that performs the identical arithmetic (same adds on the same values)
  // while the per-lane vectors advance in integer/float SIMD.
  const auto drain_pack = [&](int p, bool pending, double t) {
    const int base = p * W;
    if (alive[base] == 0) return;
    double dtb = detect_t[base];
    if (!(dtb <= horizon) ||
        (pending && !(dtb < t || (dtb == t && dseq[base] < hseq[base])))) {
      return;
    }
    const double per_b = period[base];
    const std::uint64_t hseq_b = hseq[base];
    std::uint64_t nseq_b = nseq[base];
    std::uint64_t dseq_b = dseq[base];
    const M fullm = V::mask_from_bits(kFull);
    const V perv = V::load(period + base);
    V dt = V::load(detect_t + base);
    U attv = V::uload(attempted + base);
    U compv = V::uload(completed + base);
    U skipv = V::uload(skipped + base);
    U dsv = V::uload(dseq + base);
    U nsv = V::uload(nseq + base);
    do {
      const V s = V::load(soc + base);
      const V vv = V::load(v + base);
      // Gate: decided by SoC compares outside the bisected window, by the
      // shared exact stored-energy evaluation inside it.
      const M gt_hi = V::gt(s, V::load(gate_hi + base));
      unsigned heb = V::mask_bits(gt_hi);
      const unsigned ltb = V::mask_bits(V::lt(s, V::load(gate_lo + base)));
      const unsigned midb = kFull & ~(heb | ltb);
      M he = gt_hi;
      if (midb != 0u) {
        for (int w = 0; w < W; ++w) {
          if (((midb >> w) & 1u) == 0u) continue;
          day[base + w]->battery.restore_soc(soc[base + w]);
          if (day[base + w]->battery.stored_energy_j() >= need[base + w]) {
            heb |= 1u << w;
          }
        }
        he = V::mask_from_bits(heb);
      }
      const M dm = V::mask_and(he, V::gt(s, V::broadcast(0.0)));
      M cm = V::mask_from_bits(0u);
      if (V::mask_bits(dm) != 0u) {
        // battery.discharge(det_pw, det_dur) across the pack, blended onto
        // the lanes the scalar path would have touched.
        const V cap = V::load(cap_c + base);
        const V current_a = V::load(det_pw + base) / vv;
        const V want_c = current_a * V::load(det_dur + base);
        const V have_c = s * cap;
        const V delta_c = V::stdmin(want_c, have_c);
        const V ns = s - delta_c / cap;
        const V nv = ocv_lanes<V>(ns);
        const V got = delta_c * nv;
        const V cons = V::load(consumed + base);
        V::store(soc + base, V::select(dm, ns, s));
        V::store(v + base, V::select(dm, nv, vv));
        V::store(consumed + base, V::select(dm, cons + got, cons));
        cm = V::mask_and(dm, V::ge(got, V::load(complete + base)));
      }
      // Exactly one of completed/skipped increments per attempt.
      attv = V::uincr(attv);
      compv = V::uincr(compv, cm);
      skipv = V::uincr(skipv, V::mask_andnot(fullm, cm));
      dsv = nsv;
      nsv = V::uincr(nsv);
      dt = dt + perv;
      dseq_b = nseq_b++;
      dtb += per_b;
    } while (alive[base] != 0 && dtb <= horizon &&
             (!pending || dtb < t || (dtb == t && dseq_b < hseq_b)));
    V::store(detect_t + base, dt);
    V::ustore(attempted + base, attv);
    V::ustore(completed + base, compv);
    V::ustore(skipped + base, skipv);
    V::ustore(dseq + base, dsv);
    V::ustore(nseq + base, nsv);
  };

  // Masked due-rounds drain for policy-kind-homogeneous packs with divergent
  // clocks. The pack's whole drain state (detect_t, SoC, OCV, consumed) stays
  // in vector registers across rounds; each round is a vectorized census of
  // the per-lane fire condition (equal-time ties fall back to a scalar
  // dseq/hseq check), one vectorized attempt body blended onto the due lanes,
  // one vectorized policy-interval evaluation, and a masked stream advance.
  // Only the integer sequence/counter updates and the rare paths (mid-gate
  // window, ties, horizon kill, non-positive-interval failure) touch scalar
  // code. Repeats until no lane fires before the pending tick.
  const auto drain_rounds = [&](int p, bool pending, double t) {
    const int base = p * W;
    unsigned alive_b = 0u;
    for (int w = 0; w < W; ++w) {
      if (alive[base + w] != 0) alive_b |= 1u << w;
    }
    if (alive_b == 0u) return;
    const V tv = V::broadcast(t);
    const V hv = V::broadcast(horizon);
    const V zero = V::broadcast(0.0);
    V dt = V::load(detect_t + base);
    // Census of the exact scalar fire condition:
    //   alive && detect_t <= horizon &&
    //   (!pending || detect_t < t || (detect_t == t && dseq < hseq))
    // The strict-less and the tie split off each other exactly (le & ~lt);
    // NaN never occurs (detect_t is a finite sum of ensure()-positive
    // intervals), so ordered compares are total here.
    const auto census = [&](V dtv, unsigned ab) -> unsigned {
      const unsigned hb = V::mask_bits(V::le(dtv, hv));
      if (!pending) return ab & hb;
      const unsigned ltb = V::mask_bits(V::lt(dtv, tv));
      unsigned due = ab & hb & ltb;
      unsigned tieb = ab & hb & V::mask_bits(V::le(dtv, tv)) & ~ltb;
      while (tieb != 0u) {
        const int w = __builtin_ctz(tieb);
        tieb &= tieb - 1u;
        if (dseq[base + w] < hseq[base + w]) due |= 1u << w;
      }
      return due;
    };
    unsigned due = census(dt, alive_b);
    if (due == 0u) {
      return;
    }
    // Round-invariant pack operands (sm only changes in harvest, which never
    // interleaves with a drain call, so the energy-neutral rate prefix is
    // evaluated once here) and the register-resident drain state.
    const V glo = V::load(gate_lo + base);
    const V ghi = V::load(gate_hi + base);
    const V cap = V::load(cap_c + base);
    const V dpw = V::load(det_pw + base);
    const V ddur = V::load(det_dur + base);
    const V comp = V::load(complete + base);
    const V pa = V::load(peva + base);
    const V pb = V::load(pevb + base);
    const V pc = V::load(pevc + base);
    const V pd = V::load(pevd + base);
    const V perv = V::load(period + base);
    const V en_rate = ppol[p] == PackPolicy::kEnergyNeutral
                          ? energy_neutral_rate_lanes<V>(pa, V::load(sm + base),
                                                         V::load(need + base))
                          : zero;
    V s = V::load(soc + base);
    V vv = V::load(v + base);
    V cons = V::load(consumed + base);
    U attv = V::uload(attempted + base);
    U compv = V::uload(completed + base);
    U skipv = V::uload(skipped + base);
    U dsv = V::uload(dseq + base);
    U nsv = V::uload(nseq + base);
    do {
      ++stats.due_rounds;
      stats.due_lane_slots += W;
      stats.due_lane_attempts += static_cast<unsigned>(__builtin_popcount(due));
      const M duem = V::mask_from_bits(due);
      const M gt_hi = V::gt(s, ghi);
      unsigned heb = V::mask_bits(gt_hi);
      unsigned midb = kFull & ~(heb | V::mask_bits(V::lt(s, glo))) & due;
      M he = gt_hi;
      if (midb != 0u) {
        // Rare exact-gate window: same shared stored-energy evaluation as the
        // scalar path, on the current register SoC.
        alignas(64) double sbuf[W];
        V::store(sbuf, s);
        do {
          const int w = __builtin_ctz(midb);
          midb &= midb - 1u;
          day[base + w]->battery.restore_soc(sbuf[w]);
          if (day[base + w]->battery.stored_energy_j() >= need[base + w]) {
            heb |= 1u << w;
          }
        } while (midb != 0u);
        he = V::mask_from_bits(heb);
      }
      const M dm = V::mask_and(V::mask_and(he, V::gt(s, zero)), duem);
      V s_after = s;
      M cm = V::mask_from_bits(0u);
      if (V::mask_bits(dm) != 0u) {
        // battery.discharge(det_pw, det_dur) across the pack, blended onto
        // the lanes the scalar path would have touched.
        const V current_a = dpw / vv;
        const V want_c = current_a * ddur;
        const V have_c = s * cap;
        const V delta_c = V::stdmin(want_c, have_c);
        const V ns = s - delta_c / cap;
        const V nv = ocv_lanes<V>(ns);
        const V got = delta_c * nv;
        s_after = V::select(dm, ns, s);
        s = s_after;
        vv = V::select(dm, nv, vv);
        cons = V::select(dm, cons + got, cons);
        cm = V::mask_and(dm, V::ge(got, comp));
      }
      // Stream bookkeeping in integer SIMD: exactly one of completed/skipped
      // increments per due lane (cm is a subset of duem), and the dseq/nseq
      // advance is a masked move. dseq stores back every round because the
      // census tie-break below reads it through the array.
      attv = V::uincr(attv, duem);
      compv = V::uincr(compv, cm);
      skipv = V::uincr(skipv, V::mask_andnot(duem, cm));
      dsv = V::uselect(duem, nsv, dsv);
      nsv = V::uincr(nsv, duem);
      V::ustore(dseq + base, dsv);
      // Next interval, vectorized per the pack's (homogeneous) policy kind.
      // Non-due lanes compute garbage-free but unused values; every effect
      // below is confined to due lanes.
      V interval = perv;
      switch (ppol[p]) {
        case PackPolicy::kNull:
          break;
        case PackPolicy::kFixedEval:
          interval = pa;
          break;
        case PackPolicy::kSocProp:
          interval = soc_proportional_lanes<V>(pa, pb, pc, pd, s_after);
          break;
        case PackPolicy::kEnergyNeutral:
          interval = energy_neutral_lanes<V>(en_rate, pb, pc, pd, s_after);
          break;
      }
      if (ppol[p] != PackPolicy::kNull) {
        // Scalar checks `interval > 0.0` per due lane; !(x > 0) also catches
        // NaN, which an ordered le-against-zero would miss.
        const unsigned okb = V::mask_bits(V::gt(interval, zero));
        if ((due & ~okb) != 0u) {
          ensure(false, "detection policy returned non-positive interval");
        }
        const unsigned killb = V::mask_bits(V::gt(dt + interval, hv)) & due;
        if (killb != 0u) {
          alive_b &= ~killb;
          for (unsigned b = killb; b != 0u; b &= b - 1u) {
            alive[base + __builtin_ctz(b)] = 0;
          }
        }
      }
      dt = V::select(duem, dt + interval, dt);
      due = census(dt, alive_b);
    } while (due != 0u);
    V::store(detect_t + base, dt);
    V::store(soc + base, s);
    V::store(v + base, vv);
    V::store(consumed + base, cons);
    V::ustore(attempted + base, attv);
    V::ustore(completed + base, compv);
    V::ustore(skipped + base, skipv);
    V::ustore(nseq + base, nsv);
  };

  const V zero = V::broadcast(0.0);
  const V one = V::broadcast(1.0);
  for (std::size_t k = 0; k < refs.num_ticks; ++k) {
    const double t = refs.times[k];
    const V tv = V::broadcast(t);
    for (int p = 0; p < P; ++p) {
      const int base = p * W;
      if (mode[p] == PackMode::kLockstep) {
        drain_pack(p, /*pending=*/true, t);
        continue;
      }
      // "Any lane due?" pre-check: detect_t <= t is a strict superset of
      // the fire condition (t <= horizon, and a lane due-with-tie-loss
      // just early-outs inside), so skipping clear lanes is exact.
      const unsigned due = V::mask_bits(V::le(V::load(detect_t + base), tv));
      if (due == 0u) continue;
      if (mode[p] == PackMode::kRounds) {
        drain_rounds(p, /*pending=*/true, t);
      } else {
        for (int w = 0; w < W; ++w) {
          if (((due >> w) & 1u) != 0u) drain_lane(base + w, /*pending=*/true, t);
        }
      }
    }
    for (int p = 0; p < P; ++p) {
      const int base = p * W;
      // harvest_tick_env across the pack; the intake comes from the shared
      // per-segment tables (the same pure evaluation as the scalar cache),
      // one vector load for a shape-uniform pack, a gather otherwise.
      V in;
      if (uniform[p]) {
        in = V::load(pack_intake[p] + segs[base][k] * W);
      } else {
        alignas(64) double ibuf[W];
        for (int w = 0; w < W; ++w) ibuf[w] = intake[base + w][segs[base + w][k]];
        in = V::load(ibuf);
      }
      V::store(sm + base,
               V::broadcast(0.9) * V::load(sm + base) + V::broadcast(0.1) * in);
      V s = V::load(soc + base);
      V vv = V::load(v + base);
      // battery.charge(intake_w, tick): the scalar kernel skips zero-intake
      // and pinned-full lanes (both proven no-op identities); here the mask
      // reproduces the skips and the blend keeps skipped lanes' exact bits.
      const M ch = V::mask_and(V::ne(in, zero), V::lt(s, one));
      if (V::mask_bits(ch) == 0u) {
        ++stats.zero_charge_pack_ticks;
      } else {
        const V cap = V::load(cap_c + base);
        const V current_a = in / vv;
        const V delta_c = current_a * V::load(tick_s + base) * V::load(eff + base);
        const V ns = V::stdmin(one, s + delta_c / cap);
        const V stored_c = (ns - s) * cap;
        const V nv = ocv_lanes<V>(ns);
        const V harv = V::load(harvested + base);
        V::store(harvested + base, V::select(ch, harv + stored_c * nv, harv));
        s = V::select(ch, ns, s);
        vv = V::select(ch, nv, vv);
      }
      if (sleep_bits[p] != 0u) {
        // battery.discharge(sleep_w, tick) on the sleeping lanes (per-day
        // constant mask; must blend, not rely on a zero-power identity).
        const M sl = sleep_m[p];
        const V cap = V::load(cap_c + base);
        const V cur = V::load(sleep_w + base) / vv;
        const V want_c = cur * V::load(tick_s + base);
        const V have_c = s * cap;
        const V delta = V::stdmin(want_c, have_c);
        const V ns = s - delta / cap;
        const V nv = ocv_lanes<V>(ns);
        const V cons = V::load(consumed + base);
        V::store(consumed + base, V::select(sl, cons + delta * nv, cons));
        s = V::select(sl, ns, s);
        vv = V::select(sl, nv, vv);
      }
      V::store(soc + base, s);
      V::store(v + base, vv);
      V::store(min_soc + base, V::stdmin(V::load(min_soc + base), s));
      // hseq[i] = nseq[i]++ across the pack, in integer SIMD.
      const U nsv = V::uload(nseq + base);
      V::ustore(hseq + base, nsv);
      V::ustore(nseq + base, V::uincr(nsv));
    }
  }
  for (int p = 0; p < P; ++p) {
    if (mode[p] == PackMode::kLockstep) {
      drain_pack(p, /*pending=*/false, 0.0);
    } else if (mode[p] == PackMode::kRounds) {
      drain_rounds(p, /*pending=*/false, 0.0);
    } else {
      for (int w = 0; w < W; ++w) drain_lane(p * W + w, /*pending=*/false, 0.0);
    }
  }

  for (int i = 0; i < N; ++i) {
    const std::size_t lane = ids[i];
    refs.detect_t[lane] = detect_t[i];
    refs.detect_seq[lane] = dseq[i];
    refs.harvest_seq[lane] = hseq[i];
    refs.next_seq[lane] = nseq[i];
    refs.detect_alive[lane] = alive[i];
    day[i]->smoothed_intake_w = sm[i];
    day[i]->battery.restore_soc(soc[i]);
    DaySimulationResult& r = *day[i]->result;
    r.harvested_j = harvested[i];
    r.consumed_j = consumed[i];
    r.min_soc = min_soc[i];
    r.detections_attempted = attempted[i];
    r.detections_completed = completed[i];
    r.detections_skipped = skipped[i];
    day[i]->finish();
  }
  stats.pack_ticks = static_cast<std::uint64_t>(refs.num_ticks) * P;
  *refs.pack_stats += stats;
}

/// Consumes register-eligible lanes in blocks of 16/8(/4), widest first and
/// never narrower than the pack, mirroring the scalar ladder; returns the
/// number of lanes consumed (a multiple of the pack width — the dispatcher
/// hands the tail to a narrower tier or the scalar ladder).
template <class V>
std::size_t run_cohort_simd_ladder(const CohortGroupRefs& refs) {
  constexpr std::size_t W = static_cast<std::size_t>(V::kWidth);
  static_assert(W == 4 || W == 8, "pack widths supported by the ladder");
  const std::size_t n = refs.num_reg_lanes;
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    run_cohort_simd_block<V, static_cast<int>(16 / W)>(refs, refs.lane_ids + j);
  }
  if (j + 8 <= n) {
    run_cohort_simd_block<V, static_cast<int>(8 / W)>(refs, refs.lane_ids + j);
    j += 8;
  }
  if constexpr (W == 4) {
    if (j + 4 <= n) {
      run_cohort_simd_block<V, 1>(refs, refs.lane_ids + j);
      j += 4;
    }
  }
  return j;
}

}  // namespace iw::platform::detail
