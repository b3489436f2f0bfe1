#include "inputs.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/ftio/writer.h"
#include "safeopt/support/strings.h"
#include "tools/corpus.h"

namespace perfbench {

std::string shipped_model(const std::string& name) {
  const std::string path =
      std::string(PERFBENCH_SOURCE_ROOT) + "/examples/models/" + name + ".ft";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Document corpus_document(std::size_t clusters, std::size_t cluster_leaves,
                         std::uint32_t vote_k, std::uint64_t seed,
                         const std::string& engine_line) {
  safeopt::corpus::CorpusSpec spec;
  spec.clusters = clusters;
  spec.cluster_leaves = cluster_leaves;
  spec.vote_k = vote_k;
  spec.seed = seed;
  spec.name = std::to_string(spec.events());
  const safeopt::corpus::CorpusModel model = safeopt::corpus::make_corpus(spec);
  Document doc;
  doc.name = "corpus_" + spec.name;
  doc.text = safeopt::ftio::write_fault_tree(model.tree, model.input);
  doc.text += safeopt::concat("hazard ", model.tree.name(), " cost = 1;\n");
  doc.text += engine_line;
  doc.text += "\n";
  return doc;
}

void describe(Document& doc) {
  const safeopt::ftio::StudyDocument parsed =
      safeopt::ftio::parse_study(doc.text);
  doc.hash = safeopt::ftio::canonical_hash(parsed);
  doc.events = 0;
  for (const safeopt::ftio::HazardDecl& hazard : parsed.hazards) {
    doc.events += parsed.find_tree(hazard.tree)->tree.basic_event_count();
  }
}

std::uint64_t fingerprint(const std::vector<Document>& docs) {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  for (const Document& doc : docs) value = combine_hash(value, doc.hash);
  return value;
}

void note_inputs(Report& report, const std::vector<Document>& docs) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "input fingerprint %016llx over %zu documents",
                static_cast<unsigned long long>(fingerprint(docs)),
                docs.size());
  report.note(line);
  for (const Document& doc : docs) {
    std::snprintf(line, sizeof(line), "  %-28s %7zu events  hash %016llx",
                  doc.name.c_str(), doc.events,
                  static_cast<unsigned long long>(doc.hash));
    report.note(line);
  }
}

namespace {

/// [begin, end) of the first line starting with `head` followed by a space.
std::pair<std::size_t, std::size_t> find_statement(const std::string& text,
                                                   const std::string& head) {
  std::size_t line = 0;
  while (line < text.size()) {
    const std::size_t end = text.find('\n', line);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    if (text.compare(line, head.size() + 1, head + " ") == 0) {
      return {line, stop};
    }
    line = stop + 1;
  }
  throw std::invalid_argument("document has no \"" + head + "\" statement");
}

/// Replaces the number that follows `marker` inside [begin, end).
std::string replace_number_after(const std::string& text, std::size_t begin,
                                 std::size_t end, const std::string& marker,
                                 const std::string& number) {
  const std::size_t at = text.find(marker, begin);
  if (at == std::string::npos || at >= end) {
    throw std::invalid_argument("document has no \"" + marker + "\"");
  }
  const std::size_t from = at + marker.size();
  const std::size_t to = text.find(';', from);
  return text.substr(0, from) + number + text.substr(to);
}

}  // namespace

std::string replace_statement(const std::string& text, const std::string& head,
                              const std::string& statement) {
  const auto [begin, end] = find_statement(text, head);
  return text.substr(0, begin) + statement + text.substr(end);
}

std::string scale_first_hazard_cost(const std::string& text, double factor) {
  const auto [begin, end] = find_statement(text, "hazard");
  const std::size_t at = text.find("cost = ", begin);
  const double cost = std::strtod(text.c_str() + at + 7, nullptr);
  return replace_number_after(text, begin, end, "cost = ",
                              safeopt::format_double(cost * factor));
}

std::string set_first_probability(const std::string& text,
                                  double probability) {
  const std::size_t at = text.find(" prob = ");
  if (at == std::string::npos) {
    throw std::invalid_argument("document has no probability constant");
  }
  return replace_number_after(text, at, text.size(), " prob = ",
                              safeopt::format_double(probability));
}

double unit_interval(std::uint64_t bits, double lo, double hi) {
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

}  // namespace perfbench
