#include "platform/cohort_day.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "platform/scheduler.hpp"

namespace iw::platform {

// The merge-loop semantics here mirror fast_day.cpp's run_fast exactly — see
// the bit-exactness notes there. The only structural difference is that the
// harvest stream is materialized up front (the Shape's tick times, the same
// `t += tick` accumulation) so that N lanes sharing a tick grid can walk it
// together: per tick, each lane first drains every detection event the engine
// would pop before that tick (strictly earlier time, or coincident with an
// earlier push sequence), then fires the tick. After the last tick the
// detection stream has no harvest event left to compare against and simply
// runs out to the horizon.

std::uint32_t CohortDayState::shape_for(const hv::DayProfile& profile, double tick_s,
                                        double horizon) {
  for (std::size_t id = 0; id < shapes_.size(); ++id) {
    const Shape& shape = *shapes_[id];
    if (shape.tick_s == tick_s && shape.horizon == horizon &&
        shape.durations.size() == profile.size() &&
        std::equal(shape.durations.begin(), shape.durations.end(),
                   profile.begin(),
                   [](double d, const hv::EnvironmentSegment& seg) {
                     return d == seg.duration_s;
                   })) {
      return static_cast<std::uint32_t>(id);
    }
  }
  auto shape = std::make_unique<Shape>();
  shape->tick_s = tick_s;
  shape->horizon = horizon;
  shape->durations.reserve(profile.size());
  for (const hv::EnvironmentSegment& seg : profile) {
    shape->durations.push_back(seg.duration_s);
  }
  // The engine accumulates tick times as `t += tick_s` from an initial
  // `0 + tick_s` — one rounded add per tick, reproduced verbatim so the
  // sampled phase matches the scalar paths to the last bit. Each tick samples
  // the segment at the middle of the elapsed interval, exactly the expression
  // DayState::harvest_tick evaluates.
  shape->seg_used.assign(profile.size(), 0);
  for (double t = tick_s; t <= horizon; t += tick_s) {
    shape->times.push_back(t);
    const auto seg =
        static_cast<std::uint32_t>(detail::segment_index_at(profile, t - tick_s / 2.0));
    shape->segs.push_back(seg);
    shape->seg_used[seg] = 1;
  }
  shape_segments_.push_back(static_cast<std::uint32_t>(profile.size()));
  shapes_.push_back(std::move(shape));
  return static_cast<std::uint32_t>(shapes_.size() - 1);
}

void CohortDayState::reserve_lanes(std::size_t n) {
  lanes_.reserve(n);
  policy_.reserve(n);
  policy_eval_.reserve(n);
  seg_table_.reserve(n);
  shape_id_.reserve(n);
  intake_store_.reserve(n);
  intake_table_.reserve(n);
  reg_ok_.reserve(n);
  detect_t_.reserve(n);
  detect_seq_.reserve(n);
  harvest_seq_.reserve(n);
  next_seq_.reserve(n);
  detect_alive_.reserve(n);
}

void CohortDayState::run_day(std::span<const CohortMember> members) {
  const std::size_t n = members.size();
  lanes_.resize(std::max(lanes_.size(), n));
  policy_.resize(std::max(policy_.size(), n));
  policy_eval_.resize(std::max(policy_eval_.size(), n));
  seg_table_.resize(std::max(seg_table_.size(), n));
  shape_id_.resize(std::max(shape_id_.size(), n));
  intake_store_.resize(std::max(intake_store_.size(), n));
  intake_table_.resize(std::max(intake_table_.size(), n));
  reg_ok_.resize(std::max(reg_ok_.size(), n));
  detect_t_.resize(std::max(detect_t_.size(), n));
  detect_seq_.resize(std::max(detect_seq_.size(), n));
  harvest_seq_.resize(std::max(harvest_seq_.size(), n));
  next_seq_.resize(std::max(next_seq_.size(), n));
  detect_alive_.resize(std::max(detect_alive_.size(), n));
  // Groups persist across runs (capacity reuse); only their lane lists reset.
  // A retained group's shape pointer may come from an earlier run, but any
  // shape with the same (tick, horizon) key has bit-identical times — they
  // are the same `t += tick` accumulation.
  for (ClockGroup& g : groups_) g.lanes.clear();

  for (std::size_t i = 0; i < n; ++i) {
    const CohortMember& m = members[i];
    ensure(m.config != nullptr && m.harvester != nullptr && m.profile != nullptr &&
               m.result != nullptr,
           "CohortDayState: member with null pointer");
    *m.result = DaySimulationResult{};
    lanes_[i].init(*m.config, *m.harvester, *m.profile, *m.result, &gate_cache_);
    policy_[i] = m.policy;
    policy_eval_[i] = m.policy != nullptr ? m.policy->fast_eval() : PolicyEval{};
    // The engine schedules the harvest stream first, the detection stream
    // second — sequence numbers 0 and 1, then fire order.
    detect_t_[i] = m.config->detection_period_s;
    harvest_seq_[i] = 0;
    detect_seq_[i] = 1;
    next_seq_[i] = 2;
    detect_alive_[i] = 1;

    shape_id_[i] = shape_for(*m.profile, m.config->harvest_tick_s, lanes_[i].horizon);
    const Shape& shape = *shapes_[shape_id_[i]];
    seg_table_[i] = shape.segs.data();
    // Per-lane per-segment intake table for the register-resident day loop:
    // the same pure harvester evaluation the scalar per-segment cache makes
    // on first visit, precomputed for every segment the tick grid samples.
    // A lane qualifies for the register path only when the whole day is
    // branch-free straight-line arithmetic: no trace recording, and every
    // charge/discharge the day can fire has provably valid (non-negative)
    // inputs — anything else takes the general sweep, which preserves the
    // scalar path's exact behaviour including its ensure() failures.
    std::vector<double>& intakes = intake_store_[i];
    intakes.assign(shape.durations.size(), 0.0);
    bool reg_ok = !m.config->record_trace && lanes_[i].detection_power_w >= 0.0 &&
                  m.config->detection.duration_s >= 0.0;
    for (std::size_t s = 0; s < shape.durations.size(); ++s) {
      if (shape.seg_used[s] == 0) continue;
      const double w = m.harvester->intake_w((*m.profile)[s].env);
      intakes[s] = w;
      if (!(w >= 0.0)) reg_ok = false;
    }
    intake_table_[i] = intakes.data();
    reg_ok_[i] = reg_ok ? 1 : 0;
    ClockGroup* group = nullptr;
    for (ClockGroup& g : groups_) {
      if (g.tick_s == shape.tick_s && g.horizon == shape.horizon) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups_.push_back(ClockGroup{shape.tick_s, shape.horizon, &shape, {}});
      group = &groups_.back();
    }
    group->lanes.push_back(i);
  }

  for (ClockGroup& group : groups_) {
    if (group.lanes.empty()) continue;
    // Partition register-eligible lanes first, then sweep same-policy lanes
    // back to back: the drain loop's dispatch and interval arithmetic take
    // the same branches in runs instead of alternating per lane. Null-policy
    // lanes (the fixed periodic stream) sort before everything else and
    // cluster by period, so the SIMD tier's packs of adjacent lanes share
    // one lockstep detection clock and drain as whole vectors. Policy lanes
    // cluster by period too: a policy's rate band derives from its period,
    // so same-period packs attempt at similar rates and the masked due
    // rounds run near-full instead of idling on the slow lanes (detect_t_
    // is seeded to the period at this point — see the member init above).
    // Within a period, lanes cluster by profile shape (its first-appearance
    // index in shapes_, never the pointer, so the order is reproducible) and
    // then by starting SoC. Same-shape packs share one segment timeline:
    // their intake loads as one vector, a night tick leaves the whole pack's
    // charge mask empty so the charge divides are skipped, and energy-
    // neutral lanes with similar intake and SoC pick similar intervals, so
    // their due rounds run fuller. Pure processing-order change — lanes are
    // mutually independent, so each lane's own event sequence (and
    // therefore its bits) is untouched; the stable sort keeps it
    // deterministic.
    std::stable_sort(group.lanes.begin(), group.lanes.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (reg_ok_[a] != reg_ok_[b]) return reg_ok_[a] > reg_ok_[b];
                       const int ka = policy_[a] == nullptr
                                          ? -1
                                          : static_cast<int>(policy_eval_[a].kind);
                       const int kb = policy_[b] == nullptr
                                          ? -1
                                          : static_cast<int>(policy_eval_[b].kind);
                       if (ka != kb) return ka < kb;
                       if (detect_t_[a] != detect_t_[b]) return detect_t_[a] < detect_t_[b];
                       if (shape_id_[a] != shape_id_[b]) return shape_id_[a] < shape_id_[b];
                       return lanes_[a].battery.soc() < lanes_[b].battery.soc();
                     });
    std::size_t num_reg = 0;
    while (num_reg < group.lanes.size() && reg_ok_[group.lanes[num_reg]] != 0) {
      ++num_reg;
    }
    detail::CohortGroupRefs refs;
    refs.lanes = lanes_.data();
    refs.lane_ids = group.lanes.data();
    refs.num_lanes = group.lanes.size();
    refs.num_reg_lanes = num_reg;
    refs.times = group.shape->times.data();
    refs.num_ticks = group.shape->times.size();
    refs.seg_tables = seg_table_.data();
    refs.intake_tables = intake_table_.data();
    refs.shape_ids = shape_id_.data();
    refs.shape_segments = shape_segments_.data();
    refs.policies = policy_.data();
    refs.policy_evals = policy_eval_.data();
    refs.detect_t = detect_t_.data();
    refs.detect_seq = detect_seq_.data();
    refs.harvest_seq = harvest_seq_.data();
    refs.next_seq = next_seq_.data();
    refs.detect_alive = detect_alive_.data();
    refs.pack_stats = &pack_stats_;
    detail::run_cohort_group(refs);
  }
}

}  // namespace iw::platform
