// Handler-table emission for the basic-block translation engine.
//
// The block engine (src/cpu/block_engine.*) executes predecoded traces of
// {handler, operands} entries via threaded dispatch; this table is where
// each mnemonic's trace entry is emitted from.  It lives next to decode.*
// because it is pure ISA policy, shared by every consumer of translated
// code: which operations get a dedicated inline handler in the dispatcher
// (the hot ALU core of every workload), which terminate a basic block
// (delayed control transfers), and which fall back to the interpreter's
// flat switch for everything that touches memory, traps, windows, or
// state registers.
#pragma once

#include "isa/isa.hpp"

namespace la::isa {

/// Dispatch class of one mnemonic inside a translated block.  Every
/// mnemonic not named here executes through IntegerUnit::execute()
/// (kGeneric), so the block engine never re-implements trap-raising or
/// memory semantics; the inline classes are the pure register-to-register
/// operations, whose handlers call the same v8::alu<> as the interpreter
/// (cpu/sparc_semantics.hpp).
enum class HandlerKind : u8 {
  kAnd, kAndn, kOr, kXor, kXnor,
  kSll, kSrl, kSra,
  kSethi,
  kAdd, kAddx, kSub, kSubx,
  kAndcc, kOrcc, kXorcc,
  kAddcc, kAddxcc, kSubcc, kSubxcc,
  kGeneric,  // interpreter switch (loads, stores, muldiv, privileged, ...)
  kCount,
};

/// Emission-table entry: dispatch class plus block-boundary structure.
struct HandlerInfo {
  HandlerKind kind = HandlerKind::kGeneric;
  bool ends_block = false;  // CTI: terminates the block (delay slot follows)
};

/// Emitted entry for one mnemonic (total over the Mnemonic enum).
HandlerInfo handler_info(Mnemonic mn);

/// Stable lower-case name for a handler kind ("add", "generic", ...).
const char* handler_kind_name(HandlerKind k);

}  // namespace la::isa
