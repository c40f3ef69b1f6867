// Replacement global allocation functions behind alloc_count.hpp. They live
// in their own translation unit: were they visible to the tests' call
// sites, the compiler would inline `delete` into code that got its pointer
// from `new` and see a bare free() of an operator-new pointer.
#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_calls{0}, g_bytes{0};
std::atomic<std::uint64_t> g_aligned_calls{0}, g_aligned_bytes{0};

void* counted(std::size_t n) {
  ++g_calls;
  g_bytes += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++g_aligned_calls;
  g_aligned_bytes += n;
  ++g_calls;
  g_bytes += n;
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

namespace hmps::test {

AllocTally all_allocs() { return AllocTally{g_calls.load(), g_bytes.load()}; }

AllocTally aligned_allocs() {
  return AllocTally{g_aligned_calls.load(), g_aligned_bytes.load()};
}

}  // namespace hmps::test

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
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
