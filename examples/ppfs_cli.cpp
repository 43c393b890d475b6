// ppfs_cli — run any (workload x simulator x model x adversary x engine)
// point of the paper's lattice from the command line, or a whole grid of
// them, and print the outcome through the shared exp::Report writer. With
// no arguments it runs a representative demo (a verified SKnO run).
//
//   usage: ppfs_cli [workload] [simulator] [model] [n] [rate] [budget] [seed]
//          ppfs_cli --engine=native|batch|auto [--model=M] [--adversary=SPEC]
//                   [--simulate=SIM] [workload] [n] [seed]
//          ppfs_cli --sweep=GRID [--trials=N] [--threads=K] [--seed=S]
//                   [--out=table|json|csv] [--out-file=PATH]
//                   [--shard=i/k] [--checkpoint=FILE] [--checkpoint-every=N]
//                   [--resume=FILE] [--traj-out=FILE] [--traj-every=N]
//          ppfs_cli --merge PARTIAL... [--out=FMT] [--out-file=PATH]
//                   [--metrics-out=FILE] [--traj-out=FILE]
//     (the --sweep= form takes its flags before or after --sweep=GRID)
//
//     workload   or | and | approx-majority | exact-majority | leader |
//                threshold-true | threshold-false | mod | pairing
//                (one-way models: or | max | leader | exact-majority |
//                 beacon-or)
//     simulator  naive | skno | sid | naming
//     model      TW T1 T2 T3 IT IO I1 I2 I3 I4
//     n          population size (>= 4; 1e6 notation allowed)
//     rate       omission-insertion probability (0 disables the adversary)
//     budget     max omissions (SKnO's known bound); "uo" = unlimited
//     seed       RNG seed
//     SPEC       none | uo[:rate] | no:quiet[:rate] | no1[:rate] |
//                budget:B[:rate]   (default rate 0.1; kind may carry a
//                side suffix @starter|@reactor|@both for two-way models)
//     SIM        naive | skno:o=K | sid | naming
//
//   The two single-run forms are one-point sweeps: each translates its
//   arguments into a grid string, runs exactly the code `--sweep=<grid>`
//   runs, and prints the same one-row table. Its exit status is 0 when the
//   replica converged and, where the run was verified, matching_ok = 1;
//   otherwise 1 (a replica that throws prints FAILED on stderr); 2 for
//   arguments the grid parser rejects, unknown workload names and n < 4
//   among them, as for --sweep.
//
//     positional  W@n=N:model=M:sim=SIM:adv=A:engine=native:verify=1:
//                 seed=S:trials=1 — a step-wise simulator run checked by
//                 the Definition-3 matching verifier. SIM is skno:o=B for
//                 skno (o = 0 when budget is "uo"); A is none when
//                 rate = 0, uo:RATE when budget is "uo", budget:B:RATE
//                 otherwise. As on --engine, an adversary lifts a
//                 non-omissive model to its omissive closure.
//     --engine    W@n=N[:model=M]:adv=SPEC:engine=K[:sim=SIM]:seed=S:
//                 trials=1 — a direct run (defaults exact-majority,
//                 n = 10^6) or, with --simulate, a simulator run (defaults
//                 exact-majority-gap, n = 50). "batch" is the count-based
//                 engine, which handles million-agent populations in
//                 milliseconds in every model and under every adversary;
//                 "auto" picks and switches representations mid-run
//                 (engine/batch/regime.hpp). Attaching an adversary to a
//                 non-omissive model lifts it to its omissive closure
//                 (TW -> T1, IT/IO -> I1). On one-way models,
//                 "exact-majority" resolves to the w.h.p.-exact
//                 cancellation majority. Simulator convergence cost is
//                 super-linear in n on ANY engine (see README), so
//                 convergence demos belong at n ~ 10^2 with o <= 2.
//
//   --sweep runs a declarative scenario grid (src/exp/) instead of a single
//   trajectory: the GRID string crosses axes (comma-separated values for
//   n / model / engine / adv / sim) into concrete run points, executes
//   `trials` replicas of every point on a --threads-sized worker pool, and
//   reports mergeable aggregate statistics (convergence rate, interaction
//   mean and p50/p90/p99, omission totals) through the shared exp::Report
//   writer. Replica RNG streams are keyed per (point, trial), so the
//   aggregate output is bit-identical for any --threads value.
//
//   Observability (src/obs): --metrics-out=FILE writes every replica's
//   flight-recorder timeline — one JSONL header line per replica
//   ({"schema":"ppfs.flight.v1","point":...,"trial":...,"every":...})
//   followed by its delta-encoded snapshots — in (grid point, trial)
//   order, bit-identical for any --threads value. --metrics-every=N sets
//   the snapshot cadence in interactions (default 2^20; enabling metrics
//   never changes results — instrumentation consumes no Rng draws).
//   --progress swaps the \r counter for one serialized JSON heartbeat
//   line per replica on stderr (machine-tailable).
//
//   Sweep service (src/exp/sweep_service.hpp): --shard=i/k runs only the
//   round-robin slice i of the flattened (point, trial) job list and
//   writes a binary PARTIAL (provenance + per-point aggregates + raw
//   replica results) to --out-file; `--merge a b c ...` folds k partials
//   back into the full report — byte-identical to the 1-process run at
//   any thread count. --checkpoint=FILE atomically rewrites a resume
//   checkpoint after every completed replica; --checkpoint-every=N
//   additionally embeds mid-replica engine snapshots captured at probe
//   slice boundaries every N interactions (single-threaded drains only);
//   --resume=FILE continues a killed sweep from its checkpoint to the
//   byte-identical final output. --traj-out=FILE persists per-replica
//   count trajectories (--traj-every cadence, default 2^20) as a
//   delta-encoded store; ppfs_trajcat merges shard stores and decodes
//   them to JSONL. All file outputs (--out-file, --metrics-out,
//   --traj-out, checkpoints, partials) are written atomically: temp file
//   + rename, so a SIGKILL never leaves a torn file. Grammar:
//
//     workload[,workload...]@key=value[:key=value...]
//     axis keys   n (1e6 ok), model, engine, adv, sim   (comma = list)
//     scalar keys trials, seed, steps (fixed-step runs), maxsteps,
//                 checkevery, stable, probe=workload|activation, verify=0|1
//
//   examples:
//     ppfs_cli --sweep='exact-majority@n=1e6:model=T3:adv=budget:1000:engine=batch'
//              --trials=64 --threads=8 --out=json
//     ppfs_cli --sweep='or,exact-majority@n=1000,10000:engine=batch:trials=32'
//     ppfs_cli exact-majority skno I3 10 0.05 2 42
//     ppfs_cli leader sid T3 12 0.3 uo 7
//     ppfs_cli --engine=batch --model=IO --adversary=budget:1000
//         exact-majority 1e6 42   (one command line)
//     ppfs_cli --engine=batch --simulate=skno:o=2            (n = 50 SKnO)
//     ppfs_cli --engine=auto --simulate=sid or 64 7
#include <algorithm>
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_service.hpp"
#include "util/binio.hpp"
#include "util/trajectory.hpp"

using namespace ppfs;

namespace {

int usage(const char* msg) {
  std::cerr << "ppfs_cli: " << msg
            << "\nusage: ppfs_cli [workload] [simulator] [model] [n] [rate] "
               "[budget] [seed]\n"
               "       ppfs_cli --engine=native|batch|auto [--model=M] "
               "[--adversary=SPEC] [--simulate=SIM] [workload] [n] [seed]\n"
               "       ppfs_cli --sweep=GRID [--trials=N] [--threads=K] "
               "[--seed=S] [--out=table|json|csv] [--out-file=PATH]\n"
               "                [--metrics-out=FILE] [--metrics-every=N] "
               "[--progress]\n"
               "                [--shard=i/k] [--checkpoint=FILE] "
               "[--checkpoint-every=N] [--resume=FILE]\n"
               "                [--traj-out=FILE] [--traj-every=N]\n"
               "       ppfs_cli --merge PARTIAL... [--out=FMT] "
               "[--out-file=PATH] [--metrics-out=FILE] [--traj-out=FILE]\n"
               "       SPEC = none|uo|no:Q|no1|budget:B[:rate], kind may "
               "carry @starter|@reactor|@both\n"
               "       SIM  = naive|skno:o=K|sid|naming (simulator run; "
               "default workload exact-majority-gap, n=50)\n"
               "       single runs are one-point sweeps: same table, exit 0 "
               "converged (and verified), 1 otherwise\n"
               "       GRID = workload[,workload...]@key=value[:key=value...]"
               "\n"
               "              axis keys (comma = list): n, model, engine, "
               "adv, sim\n"
               "              scalar keys: trials, seed, steps, maxsteps, "
               "checkevery, stable, probe, verify\n"
               "              e.g. 'or,exact-majority@n=1000,1e4:engine="
               "batch:adv=budget:1000:trials=32'\n";
  return 2;
}

// Minimal JSON string escaping for spec strings (quotes/backslashes;
// specs never carry control characters).
std::string json_escape_min(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Atomic file emission (temp + rename, util/binio.hpp): readers — and a
// resumed sweep after SIGKILL — see either the old complete file or the
// new complete file, never a torn mix.
bool emit_file(const std::string& path, std::string_view data) {
  if (!bin::atomic_write_file(path, data)) {
    std::cerr << "ppfs_cli: cannot write '" << path << "'\n";
    return false;
  }
  std::cerr << "wrote " << path << "\n";
  return true;
}

// Flight timelines, multiplexed: one header line per replica (schema,
// point identity, trial, cadence), then that replica's snapshot lines.
// Rows are in grid order and replicas in trial order, so the file is
// bit-identical for any --threads value (and across shard/merge).
std::string multiplex_flight(const exp::Report& report, std::size_t every) {
  std::ostringstream os;
  for (const exp::ReportRow& row : report.rows()) {
    for (std::size_t t = 0; t < row.replicas.size(); ++t) {
      os << "{\"schema\":\"ppfs.flight.v1\",\"point\":\""
         << json_escape_min(row.spec.point_key()) << "\",\"trial\":" << t
         << ",\"every\":" << every << "}\n"
         << row.replicas[t].flight;
    }
  }
  return std::move(os).str();
}

// The full-sweep trajectory records of a merged/1-process report, global
// (point, trial) order.
std::vector<TrajectoryRecord> report_trajectories(const exp::Report& report,
                                                  std::size_t every) {
  std::vector<TrajectoryRecord> records;
  for (std::size_t p = 0; p < report.rows().size(); ++p) {
    const exp::ReportRow& row = report.rows()[p];
    for (std::size_t t = 0; t < row.replicas.size(); ++t) {
      if (row.replicas[t].traj.empty()) continue;
      records.push_back(
          {p, row.spec.point_key(), t, every, row.replicas[t].traj});
    }
  }
  return records;
}

// Where a whole-sweep report goes: --out format and file, plus the
// optional flight-timeline and trajectory-store side files.
struct ReportOutputs {
  std::string format = "table";
  std::string file;
  std::string metrics;
  std::string traj;
};

// 0 for a known --out format, else the usage error's exit status.
int check_out_format(const ReportOutputs& out) {
  if (out.format == "table" || out.format == "json" || out.format == "csv")
    return 0;
  return usage(("unknown --out format '" + out.format +
                "' (want table, json or csv)")
                   .c_str());
}

// Emit a whole-sweep report (1-process run or merged shards): the side
// files first, then the report to --out-file (json for the table format)
// with the table on stdout, or the report itself to stdout. False when a
// file could not be written.
bool emit_report(const exp::Report& report, const ReportOutputs& out,
                 std::size_t metrics_every, std::size_t traj_every) {
  if (!out.metrics.empty() &&
      !emit_file(out.metrics, multiplex_flight(report, metrics_every)))
    return false;
  if (!out.traj.empty() &&
      !emit_file(out.traj, encode_trajectory_store(
                               report_trajectories(report, traj_every))))
    return false;
  if (out.file.empty()) {
    report.write(std::cout, out.format);
    return true;
  }
  std::ostringstream os;
  report.write(os, out.format == "table" ? "json" : out.format);
  if (!emit_file(out.file, os.str())) return false;
  report.print_table(std::cout);
  return true;
}

struct SweepCliOptions {
  std::string grid_text;
  std::optional<std::size_t> trials;
  std::optional<std::size_t> threads;
  std::optional<std::uint64_t> seed;
  ReportOutputs out;
  std::optional<std::size_t> metrics_every;
  bool progress = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::string checkpoint_file;
  std::size_t checkpoint_every = 0;  // in-flight snapshot cadence
  std::string resume_file;
  std::optional<std::size_t> traj_every;
  // A single-run form's one-point grid: exit with its replica's verdict
  // (single_run_status) instead of the sweep's failed-replica status.
  bool single_run = false;
};

// A single run's verdict: its one replica converged and, where the run was
// verified, the matching verifier passed.
int single_run_status(const exp::Report& report) {
  const exp::ReplicaResult& r = report.rows().front().replicas.front();
  if (r.failed() || !r.run.converged) return 1;
  const auto ok = r.extras.find("matching_ok");
  return ok == r.extras.end() || ok->second == 1.0 ? 0 : 1;
}

// Declarative grid sweep through the sweep service: expand the grid, run
// this process's shard of the flattened job list (all of it by default),
// emit one report — or, for --shard=i/k, one mergeable binary partial.
// Exit 0 when no replica failed (failure = a replica threw, not
// non-convergence).
int run_sweep(const SweepCliOptions& cli) {
  if (const int bad = check_out_format(cli.out)) return bad;
  exp::ScenarioGrid grid = exp::parse_grid(cli.grid_text);
  if (cli.trials) grid.trials = *cli.trials;
  if (cli.seed) grid.seed = *cli.seed;
  if (grid.trials == 0) return usage("--trials must be >= 1");
  if (cli.single_run && grid.points() != 1)
    return usage(("a single run names one point; '" + cli.grid_text +
                  "' names " + std::to_string(grid.points()))
                     .c_str());
  // --metrics-out / --traj-out imply their capture; default both to the
  // recorder's standard 2^20-interaction cadence unless overridden.
  std::optional<std::size_t> metrics_every = cli.metrics_every;
  if (!cli.out.metrics.empty() && !metrics_every)
    metrics_every = std::size_t{1} << 20;
  if (metrics_every) {
    if (*metrics_every == 0) return usage("--metrics-every must be >= 1");
    grid.metrics_every = *metrics_every;
  }
  std::optional<std::size_t> traj_every = cli.traj_every;
  if (!cli.out.traj.empty() && !traj_every) traj_every = std::size_t{1} << 20;
  if (traj_every) {
    if (*traj_every == 0) return usage("--traj-every must be >= 1");
    grid.traj_every = *traj_every;
  }

  const bool sharded = cli.shard_count > 1;
  if (sharded && cli.out.file.empty())
    return usage("--shard=i/k writes a binary partial; name it with "
                 "--out-file=PATH");
  if (sharded && !cli.out.metrics.empty())
    return usage("--metrics-out is a whole-sweep output; partials carry the "
                 "timelines — write it from `ppfs_cli --merge`");

  exp::SweepProvenance prov;
  prov.grid = cli.grid_text;
  prov.trials = grid.trials;
  prov.seed = grid.seed;
  prov.metrics_every = grid.metrics_every;
  prov.traj_every = grid.traj_every;
  prov.shard_index = cli.shard_index;
  prov.shard_count = cli.shard_count;

  exp::SweepServiceOptions sopt;
  if (cli.threads) sopt.threads = *cli.threads;
  sopt.checkpoint_file = cli.checkpoint_file;
  sopt.snapshot_every = cli.checkpoint_every;
  exp::SweepCheckpoint resume_ck;
  if (!cli.resume_file.empty()) {
    resume_ck = exp::decode_checkpoint(bin::read_file(cli.resume_file));
    sopt.resume = &resume_ck;
    // The killed run's half-written temp checkpoints are debris now.
    bin::remove_dead_writer_temps(cli.resume_file);
    // Keep checkpointing into the file we resumed from unless redirected.
    if (sopt.checkpoint_file.empty()) sopt.checkpoint_file = cli.resume_file;
  }
  if (sopt.snapshot_every > 0 && sopt.checkpoint_file.empty())
    return usage("--checkpoint-every needs --checkpoint=FILE (or --resume)");

  // on_replica is serialized by the service, so both progress styles write
  // whole lines/updates atomically even with many worker threads.
  const bool progress = cli.progress;
  sopt.on_replica = [progress](std::size_t done, std::size_t total,
                               const exp::ScenarioSpec& spec,
                               std::size_t trial, const exp::ReplicaResult& r) {
    if (progress) {
      std::cerr << "{\"done\":" << done << ",\"total\":" << total
                << ",\"point\":\"" << json_escape_min(spec.point_key())
                << "\",\"trial\":" << trial << ",\"converged\":"
                << (r.run.converged ? "true" : "false")
                << ",\"interactions\":" << r.run.steps
                << (r.failed() ? ",\"error\":\"" + json_escape_min(r.error) + "\""
                               : std::string())
                << "}\n";
      return;
    }
    std::cerr << "\r[" << done << "/" << total << " replicas]"
              << (r.failed() ? " FAILED: " + r.error : "") << std::flush;
    if (r.failed()) std::cerr << "\n";
  };

  exp::SweepRun run = exp::run_sweep_shard(prov, sopt);
  if (!progress) std::cerr << "\r" << std::string(40, ' ') << "\r";
  std::cerr << run.points.size() << " grid points x " << grid.trials
            << " trials";
  if (sharded)
    std::cerr << ", shard " << cli.shard_index << "/" << cli.shard_count
              << " (" << run.owned.size() << " replicas)";
  std::cerr << "\n";

  if (sharded) {
    bool failed = false;
    for (const exp::ReplicaJob& job : run.owned)
      failed = failed || run.results[job.point][job.trial].failed();
    if (!cli.out.traj.empty()) {
      const auto records = exp::trajectory_records(run, grid.traj_every);
      if (!emit_file(cli.out.traj, encode_trajectory_store(records))) return 2;
    }
    const std::string image =
        exp::encode_partial(prov, run.points, run.results, run.owned);
    if (!emit_file(cli.out.file, image)) return 2;
    return failed ? 1 : 0;
  }

  const exp::Report report =
      exp::fold_report(run.points, std::move(run.results));
  if (!emit_report(report, cli.out, grid.metrics_every, grid.traj_every))
    return 2;
  if (cli.single_run) return single_run_status(report);
  return report.any_failed() ? 1 : 0;
}

// Fold shard partials back into the full-sweep report (and optionally its
// flight-timeline / trajectory-store side files). Byte-identical to the
// 1-process run of the same grid.
int run_merge(const std::vector<std::string>& files,
              const ReportOutputs& out) {
  if (const int bad = check_out_format(out)) return bad;
  if (files.empty()) return usage("--merge needs at least one partial file");
  std::vector<std::string> images;
  images.reserve(files.size());
  for (const std::string& f : files) images.push_back(bin::read_file(f));
  const exp::SweepProvenance prov = exp::partial_provenance(images.front());
  const exp::Report report = exp::merge_partials(images);
  std::cerr << "merged " << images.size() << " partial(s): "
            << report.rows().size() << " grid points x " << prov.trials
            << " trials\n";

  if (!emit_report(report, out, prov.metrics_every, prov.traj_every)) return 2;
  return report.any_failed() ? 1 : 0;
}

// A number typed on a single-run command line, checked before it lands in
// a grid string: "0" and "0.0" must both disable the adversary.
double parse_rate(const std::string& s) {
  try {
    std::size_t end = 0;
    const double v = std::stod(s, &end);
    if (end == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("bad rate '" + s + "'");
}

// A bare token spliced into a grid string must not carry grid syntax, or
// the grid would name a different point than the one typed.
std::string bare(std::string token) {
  if (token.find_first_of(":@,=") != std::string::npos)
    throw std::invalid_argument("'" + token + "' contains grid syntax (: @ , =)");
  return token;
}

// The positional form [W] [SIM] [M] [n] [rate] [budget] [seed] as its
// one-point grid: a verified step-wise simulator run.
std::string positional_grid(const std::vector<std::string>& args) {
  if (args.size() > 7) throw std::invalid_argument("too many arguments");
  for (const std::string& a : args)
    if (a.rfind("--", 0) == 0)
      throw std::invalid_argument("unknown flag '" + a + "'");
  const auto arg = [&](std::size_t i, const char* fallback) {
    return bare(i < args.size() ? args[i] : std::string(fallback));
  };
  const std::string rate = arg(4, "0.05");
  const std::string budget = arg(5, "2");
  const bool unlimited = budget == "uo";
  std::string sim = arg(1, "skno");
  if (sim == "skno") sim += ":o=" + (unlimited ? std::string("0") : budget);
  std::string adv = "none";
  if (parse_rate(rate) != 0.0)
    adv = unlimited ? "uo:" + rate : "budget:" + budget + ":" + rate;
  return arg(0, "exact-majority") + "@n=" + arg(3, "10") +
         ":model=" + arg(2, "I3") + ":sim=" + sim + ":adv=" + adv +
         ":engine=native:verify=1:seed=" + arg(6, "42") + ":trials=1";
}

// The --engine=K form as its one-point grid: a direct run, or with
// --simulate a simulator run, on engine K.
std::string engine_grid(const std::vector<std::string>& args) {
  const std::string kind = bare(args[0].substr(9));
  std::string model;
  std::string adversary = "none";
  std::string simulate;
  std::size_t pos = 1;
  for (; pos < args.size() && args[pos].rfind("--", 0) == 0; ++pos) {
    if (args[pos].rfind("--model=", 0) == 0)
      model = bare(args[pos].substr(8));
    else if (args[pos].rfind("--adversary=", 0) == 0)
      adversary = args[pos].substr(12);
    else if (args[pos].rfind("--simulate=", 0) == 0)
      simulate = args[pos].substr(11);
    else
      throw std::invalid_argument("unknown flag '" + args[pos] + "'");
  }
  if (args.size() - pos > 3) throw std::invalid_argument("too many arguments");
  const auto arg = [&](std::size_t i, const char* fallback) {
    return bare(pos + i < args.size() ? args[pos + i] : std::string(fallback));
  };
  // Simulated runs default to the margin-Theta(n) exact-majority instance
  // at the paper's population scale (see the header comment).
  const bool sim = !simulate.empty();
  std::string grid = arg(0, sim ? "exact-majority-gap" : "exact-majority") +
                     "@n=" + arg(1, sim ? "50" : "1000000");
  if (!model.empty()) grid += ":model=" + model;
  grid += ":adv=" + adversary + ":engine=" + kind;
  if (sim) grid += ":sim=" + simulate;
  grid += ":seed=" + arg(2, "42") + ":trials=1";
  // SPEC and SIM carry ':' and '=' of their own, so bare() cannot check
  // them; instead the parsed grid must hold each whole. A value that
  // smuggles in a field ("none:steps=10", "sid:engine=native") is cut
  // short there and fails this check.
  const exp::ScenarioGrid parsed = exp::parse_grid(grid);
  if (parsed.adversaries != std::vector<std::string>{adversary})
    throw std::invalid_argument("bad --adversary '" + adversary + "'");
  if (sim && parsed.sims != std::vector<std::string>{simulate})
    throw std::invalid_argument("bad --simulate '" + simulate + "'");
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // --sweep=GRID switches to the declarative grid form (src/exp/).
    std::vector<std::string> args(argv + 1, argv + argc);
    // stoul would silently wrap "--trials=-1" to a huge count and stop
    // at trailing garbage ("--trials=8x" -> 8); demand digits only.
    const auto parse_count = [](const std::string& flag,
                                const std::string& v) -> std::uint64_t {
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("bad value '" + v + "' for " + flag);
      return std::stoull(v);
    };
    // Its flags may stand before or after the --sweep= argument.
    const auto is_sweep = [](const std::string& a) {
      return a.rfind("--sweep=", 0) == 0;
    };
    const auto sweep_at = static_cast<std::size_t>(
        std::find_if(args.begin(), args.end(), is_sweep) - args.begin());
    if (sweep_at < args.size()) {
      SweepCliOptions cli;
      cli.grid_text = args[sweep_at].substr(8);
      for (std::size_t pos = 0; pos < args.size(); ++pos) {
        if (pos == sweep_at) continue;
        if (is_sweep(args[pos]))
          return usage("--sweep given more than once");
        if (args[pos].rfind("--trials=", 0) == 0)
          cli.trials = parse_count("--trials", args[pos].substr(9));
        else if (args[pos].rfind("--threads=", 0) == 0)
          cli.threads = parse_count("--threads", args[pos].substr(10));
        else if (args[pos].rfind("--seed=", 0) == 0)
          cli.seed = parse_count("--seed", args[pos].substr(7));
        else if (args[pos].rfind("--out=", 0) == 0)
          cli.out.format = args[pos].substr(6);
        else if (args[pos].rfind("--out-file=", 0) == 0)
          cli.out.file = args[pos].substr(11);
        else if (args[pos].rfind("--metrics-every=", 0) == 0)
          cli.metrics_every =
              parse_count("--metrics-every", args[pos].substr(16));
        else if (args[pos].rfind("--metrics-out=", 0) == 0)
          cli.out.metrics = args[pos].substr(14);
        else if (args[pos].rfind("--shard=", 0) == 0) {
          const std::string spec = args[pos].substr(8);
          const std::size_t slash = spec.find('/');
          if (slash == std::string::npos)
            return usage("--shard wants i/k, e.g. --shard=0/4");
          cli.shard_index = parse_count("--shard", spec.substr(0, slash));
          cli.shard_count = parse_count("--shard", spec.substr(slash + 1));
          if (cli.shard_count == 0 || cli.shard_index >= cli.shard_count)
            return usage("--shard=i/k needs 0 <= i < k");
        } else if (args[pos].rfind("--checkpoint=", 0) == 0)
          cli.checkpoint_file = args[pos].substr(13);
        else if (args[pos].rfind("--checkpoint-every=", 0) == 0)
          cli.checkpoint_every =
              parse_count("--checkpoint-every", args[pos].substr(19));
        else if (args[pos].rfind("--resume=", 0) == 0)
          cli.resume_file = args[pos].substr(9);
        else if (args[pos].rfind("--traj-out=", 0) == 0)
          cli.out.traj = args[pos].substr(11);
        else if (args[pos].rfind("--traj-every=", 0) == 0)
          cli.traj_every = parse_count("--traj-every", args[pos].substr(13));
        else if (args[pos] == "--progress")
          cli.progress = true;
        else
          return usage(("unknown sweep flag '" + args[pos] + "'").c_str());
      }
      return run_sweep(cli);
    }

    // --merge folds shard partials back into the full-sweep report.
    if (!args.empty() && args[0] == "--merge") {
      std::vector<std::string> files;
      ReportOutputs out;
      for (std::size_t pos = 1; pos < args.size(); ++pos) {
        if (args[pos].rfind("--out=", 0) == 0)
          out.format = args[pos].substr(6);
        else if (args[pos].rfind("--out-file=", 0) == 0)
          out.file = args[pos].substr(11);
        else if (args[pos].rfind("--metrics-out=", 0) == 0)
          out.metrics = args[pos].substr(14);
        else if (args[pos].rfind("--traj-out=", 0) == 0)
          out.traj = args[pos].substr(11);
        else if (args[pos].rfind("--", 0) == 0)
          return usage(("unknown merge flag '" + args[pos] + "'").c_str());
        else
          files.push_back(args[pos]);
      }
      return run_merge(files, out);
    }

    // The single-run forms: one point of the lattice, run as a one-point
    // sweep through the same code as --sweep.
    SweepCliOptions cli;
    cli.single_run = true;
    cli.grid_text = !args.empty() && args[0].rfind("--engine=", 0) == 0
                        ? engine_grid(args)
                        : positional_grid(args);
    return run_sweep(cli);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
}
