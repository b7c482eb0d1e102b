// Counting global operator new, linked into the benchmark binary only.
//
// Replacing the global allocation functions in this translation unit
// routes every heap allocation of the process (the simulator library
// included) through malloc/free plus two counters.  Counting is off
// except inside the timed call, which is single-threaded, so the
// counters need no synchronisation.
#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {

bool g_counting = false;
perfbench::AllocCounts g_counts;

void* counted_alloc(std::size_t n) {
  if (g_counting) {
    ++g_counts.count;
    g_counts.bytes += n;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  if (g_counting) {
    ++g_counts.count;
    g_counts.bytes += n;
  }
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void start_alloc_count() {
  g_counts = {};
  g_counting = true;
}

AllocCounts stop_alloc_count() {
  g_counting = false;
  return g_counts;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
