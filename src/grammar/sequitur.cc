#include "grammar/sequitur.h"

#include <sstream>
#include <stdexcept>

namespace rpm::grammar {
namespace {

// The reference implementation of Nevill-Manning & Witten links heap
// symbols and rules by pointer and indexes digrams in a hash map keyed by
// pointer values. Here one inference owns an arena instead: symbols and
// rules live in vectors with free lists, linked by 32-bit index, and the
// digram index is an open-addressing table keyed by the two symbol codes.
// Every operation below is the reference's, step for step. Its outcome
// never depends on where a symbol or rule lives (each index entry names a
// live symbol whose digram is its key, and a rule is freed only once its
// last use is gone), so the grammar comes out the same, rule for rule.
//
// A symbol's code is (token << 1) | 1 for a terminal and (rule + 1) << 1
// for a non-terminal referencing arena rule `rule`; code 0 never occurs
// in a live symbol. A rule's guard symbol carries the rule's own code and
// closes the circular list of its body.

using Index = std::uint32_t;
using Code = std::uint64_t;
constexpr Index kNone = 0xffffffffu;

// Open-addressing digram index: linear probing, backward-shift deletion
// (no tombstones), grown to keep the load at most one half. A slot with
// a == 0 is empty.
class DigramTable {
 public:
  explicit DigramTable(std::size_t expected) {
    std::size_t capacity = 16;
    while (capacity < 2 * expected) capacity <<= 1;
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

  // Indexes (a, b) -> sym unless the digram is indexed already; returns
  // the symbol indexed under (a, b) afterwards.
  Index Insert(Code a, Code b, Index sym) {
    std::size_t i = Home(a, b);
    for (; slots_[i].a != 0; i = (i + 1) & mask_) {
      if (slots_[i].a == a && slots_[i].b == b) return slots_[i].sym;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
      return Insert(a, b, sym);
    }
    slots_[i] = Slot{a, b, sym};
    ++size_;
    return sym;
  }

  // Indexes (a, b) -> sym, replacing any entry.
  void Assign(Code a, Code b, Index sym) {
    const std::size_t i = Find(a, b);
    if (slots_[i].a != 0) {
      slots_[i].sym = sym;
      return;
    }
    Insert(a, b, sym);
  }

  // Drops the entry (a, b) if it names `sym`.
  void EraseIfNames(Code a, Code b, Index sym) {
    std::size_t i = Find(a, b);
    if (slots_[i].a == 0 || slots_[i].sym != sym) return;
    // Shift later entries of the cluster back over the hole when their
    // home lies at or before it, so every probe still reaches them.
    for (std::size_t j = (i + 1) & mask_; slots_[j].a != 0;
         j = (j + 1) & mask_) {
      const std::size_t home = Home(slots_[j].a, slots_[j].b);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }

 private:
  struct Slot {
    Code a = 0;
    Code b = 0;
    Index sym = kNone;
  };

  std::size_t Home(Code a, Code b) const {
    std::uint64_t x = (a * 0x9e3779b97f4a7c15ull) ^ b;
    x ^= x >> 32;
    x *= 0xd6e8feb86659fd93ull;
    x ^= x >> 32;
    return static_cast<std::size_t>(x) & mask_;
  }

  // The slot holding (a, b), or the empty slot that ends its probe.
  std::size_t Find(Code a, Code b) const {
    std::size_t i = Home(a, b);
    while (slots_[i].a != 0 && (slots_[i].a != a || slots_[i].b != b)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.a == 0) continue;
      std::size_t i = Home(slot.a, slot.b);
      while (slots_[i].a != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

class Sequitur {
 public:
  explicit Sequitur(std::size_t tokens) : digrams_(tokens) {
    syms_.reserve(tokens + tokens / 2 + 2);
    start_ = NewRule();
  }

  // Appends one terminal to S and restores digram uniqueness and rule
  // utility.
  void Append(std::uint32_t token) {
    InsertAfter(Last(start_), NewSymbol((Code{token} << 1) | 1u));
    Check(syms_[Last(start_)].prev);
  }

  Grammar Extract(std::size_t sequence_length) const;

 private:
  struct Symbol {
    Index next = kNone;
    Index prev = kNone;
    Code code = 0;
  };
  struct Rule {
    Index guard = kNone;  // On the free list: the next free rule.
    int uses = 0;         // Non-terminal symbols referencing the rule.
  };

  static bool IsTerminalCode(Code c) { return (c & 1u) != 0; }
  static bool IsNonTerminalCode(Code c) { return c != 0 && (c & 1u) == 0; }
  static Index RuleOfCode(Code c) { return static_cast<Index>((c >> 1) - 1); }
  static Code CodeOfRule(Index r) { return (Code{r} + 1) << 1; }

  Code code(Index s) const { return syms_[s].code; }
  Index next(Index s) const { return syms_[s].next; }
  Index prev(Index s) const { return syms_[s].prev; }
  bool IsNonTerminal(Index s) const { return IsNonTerminalCode(code(s)); }
  Index RuleOf(Index s) const { return RuleOfCode(code(s)); }
  bool IsGuard(Index s) const {
    return IsNonTerminal(s) && rules_[RuleOf(s)].guard == s;
  }
  Index First(Index r) const { return next(rules_[r].guard); }
  Index Last(Index r) const { return prev(rules_[r].guard); }

  // A new unlinked symbol; a non-terminal counts as a use of its rule.
  Index NewSymbol(Code c) {
    Index s = free_sym_;
    if (s != kNone) {
      free_sym_ = syms_[s].next;
      syms_[s] = Symbol{kNone, kNone, c};
    } else {
      s = static_cast<Index>(syms_.size());
      syms_.push_back(Symbol{kNone, kNone, c});
    }
    if (IsNonTerminalCode(c)) ++rules_[RuleOfCode(c)].uses;
    return s;
  }

  void FreeSymbol(Index s) {
    syms_[s] = Symbol{free_sym_, kNone, 0};
    free_sym_ = s;
  }

  // A new rule with an empty body: its guard linked to itself.
  Index NewRule() {
    Index r = free_rule_;
    if (r != kNone) {
      free_rule_ = rules_[r].guard;
    } else {
      r = static_cast<Index>(rules_.size());
      rules_.emplace_back();
    }
    rules_[r].guard = kNone;
    const Index guard = NewSymbol(CodeOfRule(r));
    rules_[r].guard = guard;
    rules_[r].uses = 0;  // The guard's back-reference is not a use.
    syms_[guard].next = guard;
    syms_[guard].prev = guard;
    return r;
  }

  // Frees a rule whose body has been detached from its guard.
  void FreeRule(Index r) {
    FreeSymbol(rules_[r].guard);
    rules_[r] = Rule{free_rule_, 0};
    free_rule_ = r;
  }

  // Unlinks symbol s: joins its neighbours, drops its digram and, for a
  // non-terminal, its use of the rule.
  void DeleteSymbol(Index s) {
    if (prev(s) != kNone && next(s) != kNone) Join(prev(s), next(s));
    if (!IsGuard(s)) {
      DeleteDigram(s);
      if (IsNonTerminal(s)) --rules_[RuleOf(s)].uses;
    }
    FreeSymbol(s);
  }

  // Links `left` before `right`, retiring the digram that used to start
  // at `left`.
  void Join(Index left, Index right) {
    if (next(left) != kNone) DeleteDigram(left);
    syms_[left].next = right;
    syms_[right].prev = left;
  }

  // Inserts `y` immediately after `x`.
  void InsertAfter(Index x, Index y) {
    Join(y, next(x));
    Join(x, y);
  }

  // Removes the index entry of the digram starting at s if it names s.
  void DeleteDigram(Index s) {
    if (IsGuard(s) || next(s) == kNone || IsGuard(next(s))) return;
    digrams_.EraseIfNames(code(s), code(next(s)), s);
  }

  // Checks the digram (s, next) against the index; triggers a match
  // when it already occurs elsewhere. Returns true if a reduction ran.
  bool Check(Index s) {
    if (IsGuard(s) || IsGuard(next(s))) return false;
    const Index found = digrams_.Insert(code(s), code(next(s)), s);
    if (found == s) return false;
    // Overlapping digrams (e.g. "aaa") are not reduced.
    if (next(found) != s) Match(s, found);
    return true;
  }

  // Replaces the digram starting at s with a non-terminal of rule r.
  void Substitute(Index s, Index r) {
    const Index q = prev(s);
    DeleteSymbol(next(q));
    DeleteSymbol(next(q));
    InsertAfter(q, NewSymbol(CodeOfRule(r)));
    if (!Check(q)) Check(next(q));
  }

  // Deals with a matching digram pair (s and m start equal digrams).
  void Match(Index s, Index m) {
    Index r = kNone;
    if (IsGuard(prev(m)) && IsGuard(next(next(m)))) {
      // The matching digram is exactly an existing rule's body: reuse it.
      r = RuleOf(prev(m));
      Substitute(s, r);
    } else {
      r = NewRule();
      // Copy the digram into the new rule's body.
      InsertAfter(Last(r), NewSymbol(code(s)));
      InsertAfter(Last(r), NewSymbol(code(next(s))));
      Substitute(m, r);
      Substitute(s, r);
      digrams_.Assign(code(First(r)), code(next(First(r))), First(r));
    }
    // Rule utility: a rule used once gets inlined.
    const Index first = First(r);
    if (IsNonTerminal(first) && rules_[RuleOf(first)].uses == 1) {
      Expand(first);
    }
  }

  // s is the last use of its rule: splice the rule body in its place.
  void Expand(Index s) {
    const Index left = prev(s);
    const Index right = next(s);
    const Index r = RuleOf(s);
    const Index first = First(r);
    const Index last = Last(r);

    DeleteDigram(s);  // Unindex (s, right).
    FreeRule(r);      // Its body stays linked; only the guard goes.
    FreeSymbol(s);

    // Relink directly: the only indexed digram touched, (s, right), was
    // removed above; (left, s) starts at a guard and is never indexed.
    syms_[left].next = first;
    syms_[first].prev = left;
    syms_[last].next = right;
    syms_[right].prev = last;
    digrams_.Assign(code(last), code(right), last);
  }

  std::vector<Symbol> syms_;
  std::vector<Rule> rules_;
  Index free_sym_ = kNone;
  Index free_rule_ = kNone;
  DigramTable digrams_;
  Index start_ = kNone;
};

// Linearizes the live grammar into GrammarRule structs (S first, the
// others numbered in order of first reference) and computes occurrence
// spans by a full expansion walk of S.
Grammar Sequitur::Extract(std::size_t sequence_length) const {
  std::vector<int> ids(rules_.size(), -1);
  std::vector<Index> order;
  auto id_of = [&](Index r) {
    if (ids[r] < 0) {
      ids[r] = static_cast<int>(order.size());
      order.push_back(r);
    }
    return ids[r];
  };
  id_of(start_);
  std::vector<GrammarRule> rules;
  // `order` grows while bodies are read; the bound is re-read each pass.
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Index guard = rules_[order[i]].guard;
    std::size_t body = 0;
    for (Index s = next(guard); s != guard; s = next(s)) ++body;
    GrammarRule out;
    out.id = static_cast<int>(i);
    out.rhs.reserve(body);
    for (Index s = next(guard); s != guard; s = next(s)) {
      if (IsTerminalCode(code(s))) {
        out.rhs.push_back(static_cast<std::int64_t>(code(s) >> 1));
      } else {
        out.rhs.push_back(-static_cast<std::int64_t>(id_of(RuleOf(s))) - 1);
      }
    }
    rules.push_back(std::move(out));
  }

  // Expanded lengths, bottom-up via memoized walk.
  std::vector<std::size_t> len(rules.size(), 0);
  std::vector<char> done(rules.size(), 0);
  auto compute_len = [&](auto&& self, std::size_t id) -> std::size_t {
    if (done[id]) return len[id];
    std::size_t total = 0;
    for (std::int64_t v : rules[id].rhs) {
      total += (v >= 0) ? 1 : self(self, static_cast<std::size_t>(-v - 1));
    }
    done[id] = 1;
    len[id] = total;
    return total;
  };
  for (std::size_t i = 0; i < rules.size(); ++i) compute_len(compute_len, i);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rules[i].expanded_length = len[i];
  }

  // Occurrence spans: walk S fully; every non-terminal instance met at
  // terminal position p spans [p, p + len - 1].
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
  std::size_t pos = 0;
  while (!stack.empty()) {
    auto& [rid, idx] = stack.back();
    const auto& rhs = rules[rid].rhs;
    if (idx >= rhs.size()) {
      stack.pop_back();
      continue;
    }
    const std::int64_t v = rhs[idx++];
    if (v >= 0) {
      ++pos;
    } else {
      const auto child = static_cast<std::size_t>(-v - 1);
      rules[child].occurrences.push_back(
          RuleOccurrence{pos, pos + len[child] - 1});
      stack.emplace_back(child, 0);
    }
  }
  return Grammar(std::move(rules), sequence_length);
}

}  // namespace

std::vector<const GrammarRule*> Grammar::RepeatedRules() const {
  std::vector<const GrammarRule*> out;
  for (const auto& r : rules_) {
    if (r.id != 0) out.push_back(&r);
  }
  return out;
}

std::vector<std::uint32_t> Grammar::Expand(int id) const {
  std::vector<std::uint32_t> out;
  // Iterative stack expansion to avoid deep recursion on long inputs.
  std::vector<std::pair<int, std::size_t>> stack{{id, 0}};
  while (!stack.empty()) {
    auto& [rid, pos] = stack.back();
    const auto& rhs = rules_[static_cast<std::size_t>(rid)].rhs;
    if (pos >= rhs.size()) {
      stack.pop_back();
      continue;
    }
    const std::int64_t v = rhs[pos++];
    if (v >= 0) {
      out.push_back(static_cast<std::uint32_t>(v));
    } else {
      stack.emplace_back(static_cast<int>(-v - 1), 0);
    }
  }
  return out;
}

std::string Grammar::ToString() const {
  std::ostringstream os;
  for (const auto& r : rules_) {
    if (r.id == 0) {
      os << "S ->";
    } else {
      os << 'R' << r.id << " ->";
    }
    for (std::int64_t v : r.rhs) {
      if (v >= 0) {
        os << ' ' << v;
      } else {
        os << " R" << (-v - 1);
      }
    }
    os << "   [len=" << r.expanded_length
       << " occ=" << r.occurrences.size() << "]\n";
  }
  return os.str();
}

Grammar InferGrammar(std::span<const std::uint32_t> tokens) {
  if (tokens.empty()) {
    return Grammar({GrammarRule{0, {}, 0, {}}}, 0);
  }
  // Symbols are linked by 32-bit index. The arena peaks near 1.1
  // symbols per token (its free lists recycle what reductions delete),
  // so this bound leaves ample room.
  if (tokens.size() > kNone / 4) {
    throw std::invalid_argument("InferGrammar: more than 2^30 tokens");
  }
  Sequitur sequitur(tokens.size());
  for (std::uint32_t t : tokens) sequitur.Append(t);
  return sequitur.Extract(tokens.size());
}

}  // namespace rpm::grammar
