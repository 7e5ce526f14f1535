#ifndef X3_CUBE_GROUP_WALK_H_
#define X3_CUBE_GROUP_WALK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cube/cube_result.h"
#include "cube/fact_table.h"
#include "relax/cube_lattice.h"

namespace x3 {

// --- Group-key field format ---
//
// The one encoder and decoder of a packed key field in src/: a value as
// 4 big-endian bytes, so bytewise key order is value order. GroupKey
// (PackGroupKey), view keys and the top-down sort records all use it.

inline constexpr size_t kKeyFieldBytes = 4;

/// The field of a §3.5 null-value group (an uncovered axis). Never a
/// real ValueId: value dictionaries are dense.
inline constexpr ValueId kNullKeyField = kInvalidValueId;

inline void WriteKeyField(char* out, uint32_t v) {
  out[0] = static_cast<char>((v >> 24) & 0xFF);
  out[1] = static_cast<char>((v >> 16) & 0xFF);
  out[2] = static_cast<char>((v >> 8) & 0xFF);
  out[3] = static_cast<char>(v & 0xFF);
}

inline void AppendKeyField(std::string* out, uint32_t v) {
  char field[kKeyFieldBytes];
  WriteKeyField(field, v);
  out->append(field, kKeyFieldBytes);
}

inline uint32_t ReadKeyField(const char* p) {
  return (static_cast<uint32_t>(static_cast<uint8_t>(p[0])) << 24) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 8) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3]));
}

// --- The group-walk kernel ---

/// What a walk does with a fact that has no admitted value on a present
/// axis (a coverage violation).
enum class UncoveredAxis : uint8_t {
  /// The fact belongs to no group of the cuboid (the cube's semantics).
  kDropFact,
  /// The fact joins that axis's null-value group (§3.5), so views keep
  /// every fact visible to later roll-ups.
  kNullGroup,
};

/// Enumerates a fact's groups in one cuboid: the cross product of its
/// distinct admitted values on the present axes (§3.3's "combinatorial
/// number of counters" under a disjointness violation). Every group
/// enumeration in the engine runs here: REFERENCE, COUNTER, the top-down
/// base sorts, and the view store's builds, deltas and base answers.
///
/// Each group is packed into one reused key buffer in present-axis
/// order; `fn(const GroupKey&)` sees it until it returns. The first
/// present axis varies fastest. A cuboid with no present axis (the
/// apex) yields one empty key per fact. One walk per thread.
class GroupWalk {
 public:
  GroupWalk(const CubeLattice& lattice, CuboidId cuboid,
            UncoveredAxis uncovered)
      : uncovered_(uncovered) {
    digits_.reserve(lattice.num_axes());
    for (size_t a = 0; a < lattice.num_axes(); ++a) {
      AxisStateId s = lattice.StateOf(cuboid, a);
      if (lattice.axis(a).state(s).grouping_present()) {
        digits_.push_back(Digit{a, s});
      }
    }
    gathered_.resize(digits_.size());
  }

  /// Bytes of every key this walk yields.
  size_t key_size() const { return digits_.size() * kKeyFieldBytes; }

  /// Walks `fact`'s groups, gathering its admitted values from `facts`.
  template <typename Fn>
  void ForEachGroup(const FactTable& facts, size_t fact, Fn&& fn) {
    for (size_t i = 0; i < digits_.size(); ++i) {
      facts.AdmittedValues(digits_[i].axis, fact, digits_[i].state,
                           &gathered_[i]);
      if (!Admit(&digits_[i], gathered_[i])) return;
    }
    Walk(fn);
  }

  /// Walks the groups of a fact whose admitted values the caller has
  /// already gathered as `lists[axis][state]` (COUNTER fills them once
  /// per fact for all the cuboids of a pass).
  template <typename Fn>
  void ForEachGroup(const std::vector<std::vector<std::vector<ValueId>>>& lists,
                    Fn&& fn) {
    for (Digit& d : digits_) {
      if (!Admit(&d, lists[d.axis][d.state])) return;
    }
    Walk(fn);
  }

 private:
  /// One present axis of the cuboid: an odometer digit over `values`.
  struct Digit {
    size_t axis;
    AxisStateId state;
    /// The fact's values on the axis (gathered, the caller's, or the
    /// null group), and the digit's position in them.
    const std::vector<ValueId>* values = nullptr;
    size_t at = 0;
  };

  /// Points `d` at `values`, or at the null group when they are empty;
  /// false when the fact drops out instead.
  bool Admit(Digit* d, const std::vector<ValueId>& values) {
    static const std::vector<ValueId> kNullGroup{kNullKeyField};
    if (!values.empty()) {
      d->values = &values;
    } else if (uncovered_ == UncoveredAxis::kNullGroup) {
      d->values = &kNullGroup;
    } else {
      return false;
    }
    return true;
  }

  /// The odometer: rewrites only the key fields it moves.
  template <typename Fn>
  void Walk(Fn& fn) {
    const size_t n = digits_.size();
    key_.resize(n * kKeyFieldBytes);
    for (size_t i = 0; i < n; ++i) {
      digits_[i].at = 0;
      WriteKeyField(key_.data() + i * kKeyFieldBytes, (*digits_[i].values)[0]);
    }
    for (;;) {
      fn(static_cast<const GroupKey&>(key_));
      size_t i = 0;
      for (; i < n; ++i) {
        Digit& d = digits_[i];
        char* field = key_.data() + i * kKeyFieldBytes;
        if (++d.at < d.values->size()) {
          WriteKeyField(field, (*d.values)[d.at]);
          break;
        }
        d.at = 0;
        if (d.values->size() > 1) WriteKeyField(field, (*d.values)[0]);
      }
      if (i == n) return;
    }
  }

  UncoveredAxis uncovered_;
  /// Present axes in ascending order.
  std::vector<Digit> digits_;
  /// Per present axis, the values gathered from the fact table.
  std::vector<std::vector<ValueId>> gathered_;
  GroupKey key_;
};

}  // namespace x3

#endif  // X3_CUBE_GROUP_WALK_H_
