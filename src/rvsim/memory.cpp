#include "rvsim/memory.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#else
#include <cstdlib>
#endif

namespace iw::rv {

namespace {

/// Zero-filled storage for the simulated memory. On Linux it is a private
/// anonymous mapping: the kernel supplies zero pages on first touch, so a
/// 1 MiB image costs only the pages a program touches (no memset), and it
/// never enters the malloc heap, where a freed image per call fragments
/// the arena around longer-lived allocations.
std::uint8_t* map_zeroed(std::size_t size) {
  if (size == 0) return nullptr;
#if defined(__linux__)
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ensure(p != MAP_FAILED, "Memory: cannot map the simulated memory");
#else
  void* p = std::calloc(size, 1);
  ensure(p != nullptr, "Memory: cannot allocate the simulated memory");
#endif
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

void Memory::Unmap::operator()(std::uint8_t* bytes) const {
#if defined(__linux__)
  munmap(bytes, size);
#else
  std::free(bytes);
#endif
}

Memory::Memory(std::size_t size_bytes)
    : size_(size_bytes), bytes_(map_zeroed(size_bytes), Unmap{size_bytes}) {}

void Memory::write_block(std::uint32_t addr, std::span<const std::uint8_t> data) {
  ensure(static_cast<std::uint64_t>(addr) + data.size() <= size_,
         "Memory::write_block out of bounds");
  if (data.empty()) return;
  std::memcpy(bytes_.get() + addr, data.data(), data.size());
  notify_write(addr, static_cast<std::uint32_t>(data.size()));
}

void Memory::write_words(std::uint32_t addr, std::span<const std::uint32_t> words) {
  check_words(addr, words.size());
  if (words.empty()) return;
  std::memcpy(bytes_.get() + addr, words.data(), 4 * words.size());
  notify_write(addr, static_cast<std::uint32_t>(4 * words.size()));
}

void Memory::write_words(std::uint32_t addr, std::span<const std::int32_t> words) {
  check_words(addr, words.size());
  if (words.empty()) return;
  std::memcpy(bytes_.get() + addr, words.data(), 4 * words.size());
  notify_write(addr, static_cast<std::uint32_t>(4 * words.size()));
}

std::vector<std::int32_t> Memory::read_words_i32(std::uint32_t addr, std::size_t count) const {
  check_words(addr, count);
  std::vector<std::int32_t> out(count);
  if (count > 0) std::memcpy(out.data(), bytes_.get() + addr, 4 * count);
  return out;
}

std::vector<float> Memory::read_words_f32(std::uint32_t addr, std::size_t count) const {
  check_words(addr, count);
  std::vector<float> out(count);
  if (count > 0) std::memcpy(out.data(), bytes_.get() + addr, 4 * count);
  return out;
}

void Memory::write_words_f32(std::uint32_t addr, std::span<const float> words) {
  check_words(addr, words.size());
  if (words.empty()) return;
  std::memcpy(bytes_.get() + addr, words.data(), 4 * words.size());
  notify_write(addr, static_cast<std::uint32_t>(4 * words.size()));
}

void Memory::add_write_observer(WriteObserver* observer, std::uint32_t lo,
                                std::uint32_t hi) {
  ensure(observer != nullptr, "Memory::add_write_observer: null observer");
  watches_.push_back(Watch{observer, lo, hi});
  watch_hi_ = std::max(watch_hi_, hi);
}

void Memory::remove_write_observer(WriteObserver* observer) {
  std::erase_if(watches_, [observer](const Watch& w) { return w.observer == observer; });
  watch_hi_ = 0;
  for (const Watch& w : watches_) watch_hi_ = std::max(watch_hi_, w.hi);
}

void Memory::set_observed_range(WriteObserver* observer, std::uint32_t lo,
                                std::uint32_t hi) {
  watch_hi_ = 0;
  for (Watch& w : watches_) {
    if (w.observer == observer) {
      w.lo = lo;
      w.hi = hi;
    }
    watch_hi_ = std::max(watch_hi_, w.hi);
  }
}

void Memory::dispatch_write(std::uint32_t addr, std::uint32_t len) {
  for (const Watch& w : watches_) {
    if (addr < w.hi && addr + len > w.lo) w.observer->on_write(addr, len);
  }
}

}  // namespace iw::rv
