#pragma once
/// \file kernel_dispatch.hpp
/// hylo::kern — runtime kernel-tier dispatch for the dense-compute core.
///
/// The GEMM family (DESIGN.md §13) runs through one packed, cache-blocked
/// driver; a tier is the microkernel it calls (a portable plain-C++ tile,
/// or a register-tiled SIMD tile per vector ISA) plus the matching vector
/// helpers. Which one runs is a process-wide *tier*, resolved once at first
/// use:
///
///   1. `HYLO_KERNEL` environment variable: `scalar`, `avx2`, `avx512`,
///      `neon`, or `native` (best tier the CPU supports). Unknown names and
///      tiers the hardware cannot run are rejected loudly (hylo::Error).
///   2. Unset/empty: `native`.
///   3. `set_tier()` / `set_tier_by_name()` override programmatically
///      (tests, benches); explicit config wins over the environment.
///
/// Determinism contract per tier (DESIGN.md §13): results are bitwise
/// identical at any thread count *within* a tier; the scalar tier keeps the
/// seed loops' per-element accumulation order wherever the packed order can
/// (CI's bitwise lanes pin `HYLO_KERNEL=scalar`). SIMD tiers reassociate
/// k-accumulation relative to scalar, so cross-tier comparisons use
/// norm-relative tolerances.

#include <string>

namespace hylo::kern {

/// Kernel tiers, ordered by preference (higher = wider vectors).
enum class Tier {
  kScalar = 0,  ///< portable C++ microkernel and loops; the bitwise anchor
  kNeon = 1,    ///< aarch64 NEON, 2 doubles/vector
  kAvx2 = 2,    ///< x86 AVX2+FMA, 4 doubles/vector
  kAvx512 = 3,  ///< x86 AVX-512F/DQ, 8 doubles/vector
};

/// The tier currently driving the dense kernels. First call resolves
/// HYLO_KERNEL (throws hylo::Error on an unknown or unavailable name);
/// afterwards a relaxed atomic load.
Tier active();

/// True if this process can execute `t` on this CPU. kScalar is always
/// available; SIMD tiers require both compiler support (the microkernels
/// are compiled with target attributes) and runtime CPU capability.
bool available(Tier t);

/// Best tier the CPU supports (what `native` resolves to).
Tier best();

/// Programmatic override (tests/benches). Rejects unavailable tiers with
/// hylo::Error. Returns the previous tier.
Tier set_tier(Tier t);

/// Parse a tier name (`scalar`/`neon`/`avx2`/`avx512`/`native`). Throws
/// hylo::Error on unknown names; `native` resolves to best().
Tier parse_tier(const std::string& name);

/// set_tier(parse_tier(name)). Returns the previous tier.
Tier set_tier_by_name(const std::string& name);

/// Canonical name of a tier (the accepted HYLO_KERNEL spellings).
const char* tier_name(Tier t);

}  // namespace hylo::kern
