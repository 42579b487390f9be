#pragma once

// Allocation-counting hook for the zero-allocation assertions of a test
// binary: replaces the global operator new/delete with malloc/free plus a
// counter.  The replacements are definitions, so include this header from
// exactly one translation unit per test executable.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
[[maybe_unused]] std::uint64_t allocationCount() {
  return gAllocCount.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms (std::stable_sort's temporary buffer) must come from the
// same malloc: sanitizers replace any form left undefined with their own
// allocator, which the free-based deletes below then mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
