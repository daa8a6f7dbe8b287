#include "fleet/longitudinal/checkpoint.hpp"

#include "common/error.hpp"

namespace iw::fleet {
namespace {

// File magic: "IWLCKPT1" as raw bytes, followed by a format version.
constexpr std::uint8_t kCheckpointMagic[8] = {'I', 'W', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kCheckpointVersion = 1;

}  // namespace

void save_device_checkpoint(const DeviceCheckpoint& cp, ByteWriter& out) {
  const std::size_t start = out.size();
  out.f64(cp.soc);
  out.u32(cp.days_run);
  for (const std::uint64_t s : cp.rng.state) out.u64(s);
  out.u64(cp.rng.seed);
  out.f64(cp.rng.cached_normal);
  out.u8(cp.rng.has_cached_normal ? 1 : 0);
  const DeviceOutcome& o = cp.outcome;
  out.u64(o.device_id);
  out.u8(static_cast<std::uint8_t>(o.profile));
  out.u8(static_cast<std::uint8_t>(o.policy));
  out.u32(static_cast<std::uint32_t>(o.days_run));
  out.u64(o.detections_attempted);
  out.u64(o.detections_completed);
  out.u64(o.detections_skipped);
  out.f64(o.harvested_j);
  out.f64(o.consumed_j);
  out.f64(o.initial_soc);
  out.f64(o.final_soc);
  out.f64(o.min_soc);
  out.f64(o.detections_per_min);
  out.f64(o.mean_intake_w);
  out.u8(o.self_sustaining ? 1 : 0);
  for (const std::uint64_t c : o.class_counts) out.u64(c);
  out.u64(o.classified);
  ensure(out.size() - start == kDeviceCheckpointBytes,
         "save_device_checkpoint: record size drifted from the declared layout");
}

DeviceCheckpoint load_device_checkpoint(ByteReader& in) {
  DeviceCheckpoint cp;
  cp.soc = in.f64();
  cp.days_run = in.u32();
  for (std::uint64_t& s : cp.rng.state) s = in.u64();
  cp.rng.seed = in.u64();
  cp.rng.cached_normal = in.f64();
  cp.rng.has_cached_normal = in.u8() != 0;
  DeviceOutcome& o = cp.outcome;
  o.device_id = in.u64();
  const std::uint8_t profile = in.u8();
  const std::uint8_t policy = in.u8();
  ensure(profile < kNumWearerProfiles, "load_device_checkpoint: bad profile");
  ensure(policy < kNumPolicyKinds, "load_device_checkpoint: bad policy");
  o.profile = static_cast<WearerProfile>(profile);
  o.policy = static_cast<PolicyKind>(policy);
  o.days_run = static_cast<int>(in.u32());
  o.detections_attempted = in.u64();
  o.detections_completed = in.u64();
  o.detections_skipped = in.u64();
  o.harvested_j = in.f64();
  o.consumed_j = in.f64();
  o.initial_soc = in.f64();
  o.final_soc = in.f64();
  o.min_soc = in.f64();
  o.detections_per_min = in.f64();
  o.mean_intake_w = in.f64();
  o.self_sustaining = in.u8() != 0;
  for (std::uint64_t& c : o.class_counts) c = in.u64();
  o.classified = in.u64();
  return cp;
}

void save_checkpoint_header(const CheckpointHeader& header, ByteWriter& out) {
  const std::size_t start = out.size();
  out.bytes(kCheckpointMagic, sizeof kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.u64(header.fleet_seed);
  out.u64(header.first_device);
  out.u64(header.num_devices);
  out.u32(header.days_total);
  out.u32(header.day);
  out.u32(header.soc_bins);
  out.u32(static_cast<std::uint32_t>(kDeviceCheckpointBytes));
  out.u64(header.stats_bytes);
  ensure(out.size() - start == kCheckpointHeaderBytes,
         "save_checkpoint_header: header size drifted from the declared layout");
}

CheckpointHeader load_checkpoint_header(ByteReader& in) {
  std::uint8_t magic[8];
  in.bytes(magic, sizeof magic);
  for (std::size_t i = 0; i < sizeof magic; ++i) {
    ensure(magic[i] == kCheckpointMagic[i],
           "checkpoint: bad magic (not a fleet checkpoint)");
  }
  ensure(in.u32() == kCheckpointVersion, "checkpoint: unsupported format version");
  CheckpointHeader header;
  header.fleet_seed = in.u64();
  header.first_device = in.u64();
  header.num_devices = in.u64();
  header.days_total = in.u32();
  header.day = in.u32();
  header.soc_bins = in.u32();
  ensure(in.u32() == kDeviceCheckpointBytes,
         "checkpoint: record size mismatch (incompatible writer)");
  header.stats_bytes = in.u64();
  return header;
}

}  // namespace iw::fleet
