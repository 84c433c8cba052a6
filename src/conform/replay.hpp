// Five-leg conformance replay.
//
// Every vector is run against both CPU models with the host fast-path
// switch (CpuConfig::host_fast_paths) off and on; the IntegerUnit's fast
// setting is driven through both of its entry points:
//
//   iu-slow    cpu::IntegerUnit step(), switch off  (the reference)
//   iu-fast    cpu::IntegerUnit step(), switch on   (decode cache)
//   iu-block   cpu::IntegerUnit run(),  switch on   (block engine)
//   pipe-slow  cpu::LeonPipeline, switch off
//   pipe-fast  cpu::LeonPipeline, switch on
//
// A leg passes when the full architectural post-state (pc/npc, PSR, Y,
// WIM, TBR, error mode, every register and ASR, the touched memory words)
// and the trap outcome match the vector.  The IntegerUnit legs must also
// reproduce the reference's nominal cycle count — the functional model's
// timing is part of the contract the corpus pins; the pipeline's cycles
// depend on caches and the bus and are deliberately not checked.
#pragma once

#include <string>

#include "conform/vector.hpp"

namespace la::conform {

enum class Leg : u8 { kIuSlow = 0, kIuFast, kPipeSlow, kPipeFast, kIuBlock };

inline constexpr Leg kAllLegs[] = {Leg::kIuSlow, Leg::kIuFast,
                                   Leg::kIuBlock, Leg::kPipeSlow,
                                   Leg::kPipeFast};

/// Stable leg name ("iu-slow", ...), used in reports and `lvec --leg`.
const char* leg_name(Leg leg);

/// Parse a leg name; false on unknown.
bool leg_from_name(const std::string& name, Leg& out);

/// Replay one vector on one leg.  "" on success, else the first
/// divergence: "<case> [<leg>] <field>: <got> vs <want>".
std::string replay_vector(const TestVector& v, Leg leg);

/// Replay on all five legs; first failing leg's report wins.
std::string replay_vector_all(const TestVector& v);

}  // namespace la::conform
