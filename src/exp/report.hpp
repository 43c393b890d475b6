// The one results writer for scenario sweeps: every consumer — ppfs_cli
// --sweep, the paper-table bench harnesses, the CI smoke job — renders the
// same rows through here instead of hand-rolling its own table printing.
//
// Three formats over identical content:
//   * print_table: aligned text (util/table.hpp) with the distributional
//     columns plus one mean column per extras key present in any row;
//   * write_json:  {"points": [{...}]} — spec fields, convergence rate,
//     interaction mean/min/max/p50/p90/p99, omission totals, extras
//     summaries (schema documented in README);
//   * write_csv:   one flat row per point; the extras key union becomes
//     <key>_mean columns, empty where a row lacks the key.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/scenario.hpp"

namespace ppfs::exp {

struct ReportRow {
  ScenarioSpec spec;
  AggregateStats aggregate;
  // Per-replica results in trial order (kept for determinism tests and
  // callers that need raw outcomes; writers only use the aggregate).
  std::vector<ReplicaResult> replicas;
};

class Report {
 public:
  void add(ScenarioSpec spec, AggregateStats aggregate,
           std::vector<ReplicaResult> replicas = {});
  // Append another report's rows (benches stitch per-axis sub-sweeps).
  void extend(Report other);

  [[nodiscard]] const std::vector<ReportRow>& rows() const noexcept {
    return rows_;
  }

  // Any replica failed (threw) anywhere in the sweep?
  [[nodiscard]] bool any_failed() const noexcept;
  // Every completed replica of every point converged?
  [[nodiscard]] bool all_converged() const noexcept;

  void print_table(std::ostream& os) const;
  void write_json(std::ostream& os) const;
  void write_csv(std::ostream& os) const;
  // format: "table" | "json" | "csv".
  void write(std::ostream& os, const std::string& format) const;

  // Concatenated per-row fingerprints — the byte-stable digest the
  // determinism tests compare across thread counts.
  [[nodiscard]] std::string fingerprint() const;

 private:
  std::vector<ReportRow> rows_;
};

}  // namespace ppfs::exp
