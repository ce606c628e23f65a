#include "grammar/motifs.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

namespace rpm::grammar {

std::vector<std::uint32_t> TokensFromRecords(
    const std::vector<sax::SaxRecord>& records) {
  std::vector<std::uint32_t> tokens;
  tokens.reserve(records.size());
  // Open addressing with linear probing over a power-of-two table at
  // least twice the record count, so it never fills. A slot holds the
  // index of the record where its word first appeared; that record's
  // token is the word's id.
  constexpr std::size_t kEmpty = std::numeric_limits<std::size_t>::max();
  std::size_t capacity = 1;
  while (capacity < 2 * records.size()) capacity *= 2;
  const std::size_t mask = capacity - 1;
  std::vector<std::size_t> first_seen(capacity, kEmpty);
  const std::hash<std::string> hash;
  std::uint32_t next_id = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string& word = records[i].word;
    std::size_t slot = hash(word) & mask;
    while (first_seen[slot] != kEmpty &&
           records[first_seen[slot]].word != word) {
      slot = (slot + 1) & mask;
    }
    if (first_seen[slot] == kEmpty) {
      first_seen[slot] = i;
      tokens.push_back(next_id++);
    } else {
      tokens.push_back(tokens[first_seen[slot]]);
    }
  }
  return tokens;
}

Interval OccurrenceToInterval(const RuleOccurrence& occ,
                              const std::vector<sax::SaxRecord>& records,
                              std::size_t window,
                              std::size_t series_length) {
  const std::size_t start = records[occ.first_token].offset;
  const std::size_t end =
      std::min(series_length, records[occ.last_token].offset + window);
  return Interval{start, end - start};
}

namespace {

// True when [start, end) crosses any concatenation boundary.
bool SpansBoundary(const Interval& iv,
                   const std::vector<std::size_t>& boundaries) {
  const auto it = std::upper_bound(boundaries.begin(), boundaries.end(),
                                   iv.start);
  return it != boundaries.end() && *it < iv.end();
}

}  // namespace

std::vector<MotifCandidate> FindMotifCandidates(
    const std::vector<sax::SaxRecord>& records, std::size_t window,
    std::size_t series_length, const std::vector<std::size_t>& boundaries,
    bool filter_junctions, GiAlgorithm algorithm) {
  std::vector<MotifCandidate> out;
  if (records.empty()) return out;
  const std::vector<std::uint32_t> tokens = TokensFromRecords(records);
  const Grammar grammar = InferGrammarWith(algorithm, tokens);
  for (const GrammarRule* rule : grammar.RepeatedRules()) {
    MotifCandidate cand;
    cand.rule_id = rule->id;
    for (const RuleOccurrence& occ : rule->occurrences) {
      Interval iv =
          OccurrenceToInterval(occ, records, window, series_length);
      if (iv.length == 0) continue;
      if (filter_junctions && SpansBoundary(iv, boundaries)) continue;
      cand.intervals.push_back(iv);
    }
    if (cand.intervals.size() >= 2) out.push_back(std::move(cand));
  }
  return out;
}

}  // namespace rpm::grammar
