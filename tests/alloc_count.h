// Binary-wide heap allocation counter for the zero-allocation gates.
// Link alloc_count.cc into a test binary to replace the global operator
// new/delete there with counting versions.
#pragma once

#include <cstdint>

/// Number of global operator new calls since process start.
extern uint64_t g_alloc_count;
/// Bytes requested by those calls (exact: the sizes asked for, not the
/// allocator's rounded block sizes).
extern uint64_t g_alloc_bytes;
