// Seeded study documents. Every workload input is document text — the only
// thing the CLI and the service ever receive — generated here from the run
// seed: scaling-corpus trees from tools/corpus.h, and the shipped models of
// examples/models/ with seed-derived edits.
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Document {
  /// Label for notes and trace args, e.g. "corpus_4000".
  std::string name;
  std::string text;
  /// Basic events over the document's hazard trees.
  std::size_t events = 0;
  /// ftio::canonical_hash of the parsed document.
  std::uint64_t hash = 0;
};

/// The text of examples/models/<name>.ft.
[[nodiscard]] std::string shipped_model(const std::string& name);

/// One corpus-shaped constant document: `clusters` clusters of
/// `cluster_leaves` events under a `vote_k`-of-`clusters` top gate, the
/// tree generated from `seed`, followed by `engine_line` (a complete
/// `engine ...;` statement).
[[nodiscard]] Document corpus_document(std::size_t clusters,
                                       std::size_t cluster_leaves,
                                       std::uint32_t vote_k,
                                       std::uint64_t seed,
                                       const std::string& engine_line);

/// Parses `doc.text` and fills `events` and `hash`.
void describe(Document& doc);

/// Combines the canonical hashes of `docs` in order.
[[nodiscard]] std::uint64_t fingerprint(const std::vector<Document>& docs);

/// Notes the input fingerprint and one line per document.
void note_inputs(Report& report, const std::vector<Document>& docs);

/// `text` with the first statement that starts with `head` (e.g. "solver",
/// "engine") replaced by `statement`. Throws when there is none.
[[nodiscard]] std::string replace_statement(const std::string& text,
                                            const std::string& head,
                                            const std::string& statement);

/// `text` with the cost of its first hazard scaled by `factor` — a
/// semantic edit, so the canonical hash (and every cache key) changes.
[[nodiscard]] std::string scale_first_hazard_cost(const std::string& text,
                                                  double factor);

/// `text` with the first `prob = <number>` constant replaced by
/// `probability` — a semantic edit of a corpus document.
[[nodiscard]] std::string set_first_probability(const std::string& text,
                                                double probability);

/// A double in [lo, hi) from a 64-bit draw.
[[nodiscard]] double unit_interval(std::uint64_t bits, double lo, double hi);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H
