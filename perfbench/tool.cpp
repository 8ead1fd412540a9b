// perfbench_tool — the benchmark's in-process helper.
//
// run.py owns the timing of every end-to-end metric: it launches the
// `sasta` CLI and the `sasta --serve` daemon and measures them from the
// outside.  This helper does the three things that need the library
// in-process:
//
//   gen     draw the workload from the seed: write the .bench inputs and a
//           plan.json (circuits, and for serve_eco the request mix with its
//           ECO targets, which need the mapped netlist's instance names).
//   golden  the correctness gate of the batch workloads: parse the worst
//           paths the CLI printed, rebuild each as a sta::TruePath on the
//           same mapped netlist, re-simulate it with golden::simulate_path
//           and compare delays.
//   trace   the traced run: repeat the workload with spans recorded by THIS
//           file around the calls into each layer's public functions, write
//           the spans out, and print the per-layer metrics.  No span is
//           added inside src/.
//   calib   time a fixed reference kernel that uses no code from src/: how
//           fast the host runs right now (see run.py's host_scale).
//
// Every subcommand prints exactly one JSON object on its last stdout line.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cell/library_builder.h"
#include "charlib/serialize.h"
#include "golden/pathsim.h"
#include "netlist/bench_parser.h"
#include "netlist/bench_writer.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "server/session.h"
#include "sta/delaycalc.h"
#include "sta/eco.h"
#include "sta/pathfinder.h"
#include "sta/report.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace {

using namespace sasta;
using util::JsonValue;

constexpr const char* kTech = "90nm";

// --- Command line ------------------------------------------------------------

struct Args {
  std::string cmd;
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  std::string need(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: perfbench_tool gen|golden|trace|calib --key value ...");
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument '" + k + "'");
    }
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

// --- Workload draw -----------------------------------------------------------

/// One circuit of a workload: a generator profile.
struct CircuitSpec {
  std::string name;
  netlist::GeneratorProfile profile;
};

/// Generates the circuit, then permutes the order of its gate and output
/// declarations with the benchmark seed.  The logic is the recorded
/// circuit's; only its presentation varies with the seed.
netlist::PrimNetlist generate(const CircuitSpec& c, std::uint64_t seed) {
  netlist::PrimNetlist prim = netlist::generate_iscas_like(c.profile);
  prim.name = c.name;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + c.profile.seed);
  auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.next_below(i)]);
    }
  };
  shuffle(prim.gates);
  shuffle(prim.outputs);
  return prim;
}

/// What the daemon and the CLI see: the circuit as .bench text, parsed back.
netlist::PrimNetlist reparse(const netlist::PrimNetlist& prim) {
  return netlist::parse_bench_string(netlist::write_bench_string(prim),
                                     prim.name);
}

/// The recorded circuit mix of each workload.  Generator seeds are fixed:
/// whole-circuit redraws change the search work several-fold (c880-profile
/// circuits take 5 to 15 s depending on the generator seed), which would
/// swamp every timing.  Primary inputs keep the generator's order, because
/// the `source` schedule follows it.  The batch set leaves c880 out: one
/// analysis of it takes about 10 s at the benchmark's thread count, too
/// long to repeat within a run and report a median.
std::vector<CircuitSpec> draw_circuits(const std::string& workload,
                                       bool smoke) {
  auto iscas = [](const std::string& profile, std::uint64_t gen_seed) {
    CircuitSpec c;
    c.profile = netlist::iscas_profile(profile);
    c.profile.seed = gen_seed;
    c.name = profile + "_s" + std::to_string(gen_seed);
    return c;
  };
  std::vector<CircuitSpec> out;
  if (workload == "batch_iscas") {
    out.push_back(iscas("c432", 432));
    if (!smoke) out.push_back(iscas("c499", 432));
  } else if (workload == "serve_eco") {
    out.push_back(smoke ? iscas("c432", 432) : iscas("c499", 499));
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  return out;
}

/// The serve_eco request mix, drawn from the seed.  Kinds:
///   warm      analyze with no edit (answered from the warm caches)
///   resize    resize_cell on a random instance (re-time, no re-search)
///   retarget  retarget_corner to a random temperature (re-time everything)
///   swap      swap_gate to a same-arity cell of another function, always
///             immediately followed by the swap back (re-search writes)
JsonValue draw_requests(const netlist::Netlist& nl, const cell::Library& lib,
                        std::uint64_t seed, bool smoke) {
  util::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0x5e7e);
  // Swap candidates: instances whose cell has a same-arity alternative
  // among the basic NAND/NOR/AND/OR family.
  const std::vector<std::string> family = {"NAND2", "NOR2", "AND2", "OR2"};
  std::vector<netlist::InstId> swappable;
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    const std::string& cell = nl.instance(i).cell->name();
    if (std::find(family.begin(), family.end(), cell) != family.end()) {
      swappable.push_back(i);
    }
  }
  const int n_warm = smoke ? 24 : 120;
  const int n_resize = smoke ? 6 : 24;
  const int n_retarget = smoke ? 2 : 8;
  const int n_swap = 1;
  std::vector<JsonValue> edits;
  for (int k = 0; k < n_resize; ++k) {
    JsonValue r = JsonValue::object();
    r.set("kind", JsonValue::string("resize"));
    r.set("instance", JsonValue::string(
                          nl.instance(static_cast<netlist::InstId>(
                                          rng.next_below(nl.num_instances())))
                              .name));
    r.set("scale", JsonValue::number(0.5 + 0.25 * static_cast<double>(
                                                 rng.next_below(7))));
    edits.push_back(r);
  }
  for (int k = 0; k < n_retarget; ++k) {
    JsonValue r = JsonValue::object();
    r.set("kind", JsonValue::string("retarget"));
    r.set("temp_c", JsonValue::number(
                        static_cast<double>(rng.next_in(0, 8)) * 12.5));
    edits.push_back(r);
  }
  for (int k = 0; k < n_swap && !swappable.empty(); ++k) {
    const netlist::Instance& inst =
        nl.instance(swappable[rng.next_below(swappable.size())]);
    std::string to;
    do {
      to = family[rng.next_below(family.size())];
    } while (to == inst.cell->name());
    if (lib.find(to) == nullptr) continue;
    JsonValue r = JsonValue::object();
    r.set("kind", JsonValue::string("swap"));
    r.set("instance", JsonValue::string(inst.name));
    r.set("cell", JsonValue::string(to));
    r.set("revert_cell", JsonValue::string(inst.cell->name()));
    edits.push_back(r);
  }
  // Interleave: every edit lands at a seeded position among the warm reads.
  std::vector<JsonValue> seq;
  for (int k = 0; k < n_warm; ++k) {
    JsonValue r = JsonValue::object();
    r.set("kind", JsonValue::string("warm"));
    seq.push_back(r);
  }
  for (JsonValue& e : edits) {
    const auto pos = static_cast<std::size_t>(rng.next_below(seq.size() + 1));
    seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(pos), e);
  }
  JsonValue arr = JsonValue::array();
  for (JsonValue& r : seq) arr.push_back(r);
  return arr;
}

int cmd_gen(const Args& a) {
  const std::string workload = a.need("workload");
  const auto seed = static_cast<std::uint64_t>(std::stoull(a.need("seed")));
  const bool smoke = a.get("smoke", "0") == "1";
  const std::filesystem::path dir = a.need("dir");
  std::filesystem::create_directories(dir);
  const cell::Library lib = cell::build_standard_library();

  JsonValue plan = JsonValue::object();
  plan.set("workload", JsonValue::string(workload));
  plan.set("seed", JsonValue::number(static_cast<long>(seed)));
  plan.set("smoke", JsonValue::boolean(smoke));
  JsonValue circuits = JsonValue::array();
  for (const CircuitSpec& c : draw_circuits(workload, smoke)) {
    const netlist::PrimNetlist prim = generate(c, seed);
    const auto mapped = netlist::tech_map(reparse(prim), lib);
    std::ofstream os(dir / (c.name + ".bench"));
    netlist::write_bench(prim, os);
    JsonValue p = JsonValue::object();
    p.set("name", JsonValue::string(c.name));
    p.set("gen_seed", JsonValue::number(static_cast<long>(c.profile.seed)));
    p.set("bench", JsonValue::string(c.name + ".bench"));
    p.set("cells", JsonValue::number(
                       static_cast<long>(mapped.netlist.num_instances())));
    circuits.push_back(p);
    if (workload == "serve_eco") {
      plan.set("requests", draw_requests(mapped.netlist, lib, seed, smoke));
    }
  }
  plan.set("circuits", circuits);
  std::ofstream(dir / "plan.json") << plan.dump() << "\n";
  std::cout << plan.dump() << "\n";
  return 0;
}

JsonValue load_plan(const std::filesystem::path& dir) {
  std::ifstream is(dir / "plan.json");
  std::stringstream ss;
  ss << is.rdbuf();
  JsonValue plan;
  std::string err;
  if (!JsonValue::parse(ss.str(), &plan, &err)) {
    throw std::runtime_error("plan.json: " + err);
  }
  return plan;
}

netlist::Netlist map_bench(const std::filesystem::path& file,
                           const cell::Library& lib) {
  return netlist::tech_map(netlist::parse_bench_file(file.string()), lib)
      .netlist;
}

charlib::CharLibrary load_charlib(const cell::Library& lib,
                                  const std::string& cache_dir) {
  charlib::CharacterizeOptions copt;
  copt.profile = charlib::CharacterizeOptions::Profile::kFast;
  return charlib::load_or_characterize(lib, tech::technology(kTech), copt,
                                       cache_dir);
}

// --- golden ------------------------------------------------------------------

/// One "worst true paths" line of the CLI:
///   "  576.3 ps  I23(F) > INV:A/v0 > XOR2:A/v1 > ... > n151"
struct CliPath {
  double delay_ps = 0.0;
  std::string source;
  bool rise = true;
  struct Step {
    std::string cell, pin;
    int vector_id = 0;
  };
  std::vector<Step> steps;
  std::string sink;
};

bool parse_cli_path(const std::string& line, CliPath* out) {
  std::istringstream is(line);
  std::string ps, tok;
  if (!(is >> out->delay_ps >> ps) || ps != "ps") return false;
  if (!(is >> tok) || tok.size() < 4 || tok.back() != ')') return false;
  out->rise = tok.substr(tok.size() - 3) == "(R)";
  out->source = tok.substr(0, tok.size() - 3);
  std::vector<std::string> rest;
  while (is >> tok) {
    if (tok != ">") rest.push_back(tok);
  }
  if (rest.empty()) return false;
  out->sink = rest.back();
  rest.pop_back();
  for (const std::string& s : rest) {
    const auto colon = s.find(':');
    const auto slash = s.rfind("/v");
    if (colon == std::string::npos || slash == std::string::npos ||
        slash < colon) {
      return false;
    }
    out->steps.push_back({s.substr(0, colon), s.substr(colon + 1, slash - colon - 1),
                          std::stoi(s.substr(slash + 2))});
  }
  return true;
}

/// Rebuilds the instance sequence of a printed path by walking fanouts
/// from the source net (depth-first; the printed cell/pin sequence and the
/// sink pin it down).
bool rebuild(const netlist::Netlist& nl, const CliPath& cp, netlist::NetId net,
             std::size_t k, std::vector<sta::PathStep>* steps) {
  if (k == cp.steps.size()) return nl.net(net).name == cp.sink;
  for (const netlist::Fanout& f : nl.net(net).fanouts) {
    const netlist::Instance& inst = nl.instance(f.inst);
    if (inst.cell->name() != cp.steps[k].cell ||
        inst.cell->pin_names()[f.pin] != cp.steps[k].pin) {
      continue;
    }
    steps->push_back({f.inst, f.pin, cp.steps[k].vector_id});
    if (rebuild(nl, cp, inst.output, k + 1, steps)) return true;
    steps->pop_back();
  }
  return false;
}

int cmd_golden(const Args& a) {
  const cell::Library lib = cell::build_standard_library();
  const netlist::Netlist nl = map_bench(a.need("bench"), lib);
  const charlib::CharLibrary cl = load_charlib(lib, a.need("cache"));
  const double tol_pct = std::stod(a.need("tol-pct"));
  std::ifstream is(a.need("cli-out"));
  std::string line;
  bool in_list = false;
  long checked = 0, bad = 0;
  double max_err = 0.0;
  while (std::getline(is, line)) {
    if (line == "worst true paths:") {
      in_list = true;
      continue;
    }
    if (!in_list) continue;
    CliPath cp;
    if (!parse_cli_path(line, &cp)) break;
    sta::TruePath p;
    p.source = nl.find_net(cp.source);
    p.launch_edge = cp.rise ? spice::Edge::kRise : spice::Edge::kFall;
    ++checked;
    if (p.source == netlist::kNoId ||
        !rebuild(nl, cp, p.source, 0, &p.steps)) {
      std::cerr << "golden: cannot rebuild path: " << line << "\n";
      ++bad;
      continue;
    }
    p.sink = nl.net_id(cp.sink);
    const golden::PathSimResult g =
        golden::simulate_path(nl, cl, tech::technology(kTech), p);
    const double err =
        100.0 * std::abs(cp.delay_ps * 1e-12 - g.path_delay) / g.path_delay;
    if (!g.converged || !(err <= tol_pct)) ++bad;
    if (std::isfinite(err)) max_err = std::max(max_err, err);
  }
  if (checked == 0) ++bad;  // no path listing at all is a failure
  JsonValue r = JsonValue::object();
  r.set("checked", JsonValue::number(checked));
  r.set("bad", JsonValue::number(bad));
  r.set("max_err_pct", JsonValue::number(max_err));
  std::cout << r.dump() << "\n";
  return 0;
}

// --- trace -------------------------------------------------------------------

/// Accumulates the per-layer figures of one traced run.
struct LayerTotals {
  sta::PathFinderStats stats;
  double busy_s = 0.0, capacity_s = 0.0;  ///< Σ worker busy, Σ workers×wall
  double max_source_frac = 0.0;
  long paths_timed = 0;
  long eco_dirty = 0, eco_total = 0;
  long mismatches = 0;  ///< traced decomposition != StaTool::run
};

/// Self time per span name: duration minus what direct children cover.
/// Spans are recorded on one lane by RAII scopes (plus synthetic children
/// placed inside their parent), so they nest properly.
std::map<std::string, double> self_seconds(
    std::vector<util::TraceEvent> ev) {
  std::sort(ev.begin(), ev.end(), [](const auto& x, const auto& y) {
    return x.ts_us != y.ts_us ? x.ts_us < y.ts_us : x.dur_us > y.dur_us;
  });
  std::map<std::string, double> self;
  std::vector<std::size_t> stack;
  std::vector<double> child(ev.size(), 0.0);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    while (!stack.empty() &&
           ev[stack.back()].ts_us + ev[stack.back()].dur_us <= ev[i].ts_us) {
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += ev[i].dur_us;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    self[ev[i].name] += std::max(0.0, ev[i].dur_us - child[i]) * 1e-6;
  }
  return self;
}

sta::StaToolOptions tool_options(int threads) {
  // The CLI's defaults (shared memo cache, `both` tier, `source` schedule,
  // 1 lane, budget 2000) spelled out: the library's own defaults differ.
  sta::StaToolOptions o;
  o.keep_worst = 10;
  o.finder.num_threads = threads;
  o.finder.max_seconds = 600.0;
  o.finder.justify_backtrack_budget = 2000;
  o.finder.schedule = sta::ScheduleMode::kSource;
  o.finder.justify_cache = sta::JustifyCacheMode::kShared;
  o.finder.justify_cache_capacity = std::size_t{1} << 16;
  o.finder.justify_tier = sta::JustifyTier::kBoth;
  o.finder.escalation_payoff = 0.1;
  o.finder.trial_lanes = 1;
  return o;
}

/// Folds the scheduler gauges of one search (from a metrics snapshot with
/// pathfinder.worker.N.busy_seconds / pathfinder.source.X.seconds).
void fold_sched(const std::map<std::string, double>& gauges, double wall_s,
                LayerTotals* t) {
  double busy = 0.0, max_src = 0.0;
  int workers = 0;
  for (const auto& [k, v] : gauges) {
    if (k.rfind("pathfinder.worker.", 0) == 0 && k.ends_with(".busy_seconds")) {
      busy += v;
      ++workers;
    } else if (k.rfind("pathfinder.source.", 0) == 0 &&
               k.ends_with(".seconds")) {
      max_src = std::max(max_src, v);
    }
  }
  if (workers == 0 || wall_s <= 0.0) return;
  t->busy_s += busy;
  t->capacity_s += workers * wall_s;
  // Share of the search wall one source kept a worker busy: 1.0 means the
  // longest source alone set the search's duration.
  t->max_source_frac = std::max(t->max_source_frac, max_src / wall_s);
}

/// StaTool::run decomposed into its layer calls: PathFinder::run with
/// DelayCalculator::compute in the sink, then the same selection.
sta::StaResult traced_analysis(const netlist::Netlist& nl,
                               const charlib::CharLibrary& cl,
                               const sta::StaToolOptions& opt,
                               util::TraceCollector* trace,
                               LayerTotals* t) {
  util::MetricsRegistry metrics;
  sta::PathFinderOptions fopt = opt.finder;
  fopt.metrics = &metrics;
  const sta::DelayCalculator calc(nl, cl, tech::technology(kTech), opt.delay);
  sta::PathSelection selection(opt.keep_worst, opt.keep_fastest);
  sta::StaResult result;
  {
    util::TraceSpan span(trace, "sta.search");
    sta::PathFinder finder(nl, cl, fopt);
    result.stats = finder.run([&](const sta::TruePath& p) {
      util::TraceSpan dc(trace, "sta.delaycalc");
      selection.add(calc.compute(p));
      ++t->paths_timed;
    });
  }
  selection.finish(result.paths, result.fastest);
  fold_sched(metrics.snapshot().gauges, result.stats.cpu_seconds, t);
  t->stats += result.stats;
  return result;
}

std::string render_report(const netlist::Netlist& nl,
                          const charlib::CharLibrary& cl,
                          const sta::StaResult& r) {
  if (r.paths.empty()) return "";
  std::string text = sta::format_path(nl, cl, r.critical());
  const sta::TimingReport rep = sta::build_timing_report(nl, r, 0.0);
  return text + "\n" + sta::format_timing_report(nl, rep);
}

bool same_paths(const netlist::Netlist& nl, const sta::StaResult& x,
                const sta::StaResult& y) {
  if (x.paths.size() != y.paths.size()) return false;
  for (std::size_t i = 0; i < x.paths.size(); ++i) {
    if (x.paths[i].delay != y.paths[i].delay ||
        x.paths[i].path.full_key(nl) != y.paths[i].path.full_key(nl)) {
      return false;
    }
  }
  return true;
}

/// Batch workloads: per circuit, generate + map (spanned), then StaTool::run
/// untraced (the overhead baseline and the path reference), then the
/// spanned decomposition and the report rendering.
void trace_batch(const JsonValue& plan, const cell::Library& lib,
                 const charlib::CharLibrary& cl, int threads,
                 util::TraceCollector* trace, LayerTotals* t,
                 double* untraced_s, double* traced_s) {
  const sta::StaToolOptions opt = tool_options(threads);
  const auto seed = static_cast<std::uint64_t>(plan.get("seed").as_long());
  for (const CircuitSpec& spec : draw_circuits(plan.get("workload").as_string(),
                                               plan.get("smoke").as_bool())) {
    netlist::PrimNetlist prim;
    {
      util::TraceSpan span(trace, "netlist.generate");
      prim = generate(spec, seed);
    }
    prim = reparse(prim);
    netlist::Netlist nl;
    {
      util::TraceSpan span(trace, "netlist.techmap");
      nl = netlist::tech_map(prim, lib).netlist;
    }
    util::Stopwatch plain;
    sta::StaTool tool(nl, cl, tech::technology(kTech), opt);
    const sta::StaResult reference = tool.run();
    const std::string reference_report = render_report(nl, cl, reference);
    *untraced_s += plain.elapsed_seconds();

    util::Stopwatch traced;
    const sta::StaResult r = traced_analysis(nl, cl, opt, trace, t);
    std::string report;
    {
      util::TraceSpan span(trace, "sta.report");
      report = render_report(nl, cl, r);
    }
    *traced_s += traced.elapsed_seconds();
    if (!same_paths(nl, r, reference) || report != reference_report ||
        r.stats.truncated) {
      ++t->mismatches;
    }
  }
}

/// serve_eco: replay the plan's request mix on an in-process
/// server::Session.  Search time inside a request is the PathFinderStats
/// wall the session returns, recorded as a child span of the session span;
/// the session's report rendering is switched off and redone here under
/// its own span (same calls, same bytes as the daemon's `report`).
void replay_session(const JsonValue& plan, const netlist::Netlist& nl,
                    std::shared_ptr<const charlib::CharLibrary> cl,
                    const cell::Library& lib, int threads,
                    util::TraceCollector* trace, LayerTotals* t) {
  server::Session::Config cfg;
  cfg.tool = tool_options(threads);
  server::Session session(nl.name(), nl, cl, &lib, &tech::technology(kTech),
                          cfg);
  std::unordered_map<std::string, netlist::InstId> by_name;
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    by_name[nl.instance(i).name] = i;
  }
  server::Session::AnalyzeRequest areq;
  areq.paths = 10;
  areq.want_report = false;

  // One session call under a "server.session" span.  The search it ran
  // (PathFinderStats::cpu_seconds, as the session returns it) becomes a
  // child span at the call's start, so the session's self time excludes it.
  auto call = [&](auto&& fn) {
    const double start = trace != nullptr ? trace->now_us() : 0.0;
    const server::Session::AnalyzeOutcome out = fn();
    if (trace != nullptr) {
      trace->add_complete_event("server.session", 0, start,
                                trace->now_us() - start);
    }
    if (out.sources_searched > 0) {
      t->stats += out.result.stats;
      if (trace != nullptr) {
        trace->add_complete_event("sta.search", 0, start,
                                  out.result.stats.cpu_seconds * 1e6);
      }
      JsonValue rr;
      std::string err;
      if (JsonValue::parse(out.run_report_json, &rr, &err)) {
        std::map<std::string, double> gauges;
        for (const auto& [k, v] : rr.get("metrics").get("gauges").members()) {
          gauges[k] = v.as_double();
        }
        fold_sched(gauges, out.result.stats.cpu_seconds, t);
      }
    }
    if (out.truncated) ++t->mismatches;
    util::TraceSpan span(trace, "sta.report");
    (void)render_report(session.netlist(), *cl, out.result);
  };

  // Cold analyze, then the mix.
  call([&] { return session.analyze(areq); });
  const JsonValue& reqs = plan.get("requests");
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const JsonValue& r = reqs.at(i);
    const std::string kind = r.get("kind").as_string();
    if (kind == "warm") {
      call([&] { return session.analyze(areq); });
      continue;
    }
    std::vector<server::Session::EcoRequest> edits(1);
    server::Session::EcoRequest& e = edits[0];
    e.analyze = areq;
    if (kind == "resize") {
      e.op = "resize_cell";
      e.instance = r.get("instance").as_string();
      e.scale = r.get("scale").as_double();
    } else if (kind == "retarget") {
      e.op = "retarget_corner";
      e.has_temp = true;
      e.temp_c = r.get("temp_c").as_double();
    } else {
      e.op = "swap_gate";
      e.instance = r.get("instance").as_string();
      e.cell = r.get("cell").as_string();
      server::Session::EcoRequest back = e;
      back.cell = r.get("revert_cell").as_string();
      edits.push_back(back);
    }
    for (const server::Session::EcoRequest& edit : edits) {
      if (!edit.instance.empty()) {
        util::TraceSpan span(trace, "sta.eco.impact");
        const netlist::InstId touched[] = {by_name.at(edit.instance)};
        (void)sta::compute_eco_impact(session.netlist(), touched);
      }
      call([&] {
        const server::Session::EcoOutcome out = session.apply_eco(edit);
        t->eco_dirty += static_cast<long>(out.dirty_sources);
        t->eco_total += static_cast<long>(out.analyze.sources_total);
        return out.analyze;
      });
    }
  }
}

JsonValue metric(double v, const char* unit) {
  JsonValue m = JsonValue::object();
  m.set("value", JsonValue::number(v));
  m.set("unit", JsonValue::string(unit));
  return m;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int cmd_trace(const Args& a) {
  const std::filesystem::path dir = a.need("dir");
  const JsonValue plan = load_plan(dir);
  const int threads = std::stoi(a.need("threads"));
  const std::string cache = a.need("cache");
  const bool serve = plan.get("workload").as_string() == "serve_eco";

  util::TraceCollector collector;
  util::TraceCollector* trace = &collector;
  util::Stopwatch wall;
  const cell::Library lib = cell::build_standard_library();
  {
    // Cold characterization into a fresh cache, then the warm read.
    util::TraceSpan span(trace, "charlib.characterize");
    std::filesystem::remove_all(cache);
    (void)load_charlib(lib, cache);
  }
  std::shared_ptr<const charlib::CharLibrary> cl;
  {
    util::TraceSpan span(trace, "charlib.cache_load");
    cl = std::make_shared<const charlib::CharLibrary>(load_charlib(lib, cache));
  }

  LayerTotals t;
  double untraced_s = 0.0, traced_s = 0.0;
  if (!serve) {
    trace_batch(plan, lib, *cl, threads, trace, &t, &untraced_s, &traced_s);
  } else {
    const CircuitSpec spec = draw_circuits("serve_eco",
                                           plan.get("smoke").as_bool())[0];
    const auto seed = static_cast<std::uint64_t>(plan.get("seed").as_long());
    netlist::PrimNetlist prim;
    {
      util::TraceSpan span(trace, "netlist.generate");
      prim = generate(spec, seed);
    }
    prim = reparse(prim);
    netlist::Netlist nl;
    {
      util::TraceSpan span(trace, "netlist.techmap");
      nl = netlist::tech_map(prim, lib).netlist;
    }
    LayerTotals scratch;
    util::Stopwatch plain;
    replay_session(plan, nl, cl, lib, threads, nullptr, &scratch);
    untraced_s = plain.elapsed_seconds();
    util::Stopwatch traced;
    replay_session(plan, nl, cl, lib, threads, trace, &t);
    traced_s = traced.elapsed_seconds();
  }
  const double wall_s = wall.elapsed_seconds();
  {
    // The spans, as a Chrome trace-event file (chrome://tracing, Perfetto).
    std::ofstream os(a.need("spans-out"));
    collector.write_json(os);
  }

  const std::vector<util::TraceEvent> events = collector.events();
  std::map<std::string, double> self = self_seconds(events);
  double attributed = 0.0;
  for (const auto& [name, s] : self) attributed += s;
  long delaycalc_spans = 0;
  for (const util::TraceEvent& e : events) {
    if (e.name == "sta.delaycalc") ++delaycalc_spans;
  }

  const sta::PathFinderStats& s = t.stats;
  JsonValue m = JsonValue::object();
  m.set("netlist.generate_s", metric(self["netlist.generate"], "s"));
  m.set("netlist.techmap_s", metric(self["netlist.techmap"], "s"));
  m.set("charlib.characterize_s", metric(self["charlib.characterize"], "s"));
  m.set("charlib.cache_load_s", metric(self["charlib.cache_load"], "s"));
  m.set("sta.search.self_s", metric(self["sta.search"], "s"));
  m.set("sta.search.vector_trials",
        metric(static_cast<double>(s.vector_trials), "count"));
  m.set("sta.search.backtracks",
        metric(static_cast<double>(s.backtracks), "count"));
  m.set("sta.search.paths_per_trial",
        metric(ratio(static_cast<double>(s.paths_recorded),
                     static_cast<double>(s.vector_trials)),
               "ratio"));
  m.set("sta.justify.budget_drops",
        metric(static_cast<double>(s.justify_limited), "count"));
  m.set("sta.justify.drop_share",
        metric(ratio(static_cast<double>(s.justify_limited),
                     static_cast<double>(s.justify_limited + s.paths_recorded)),
               "ratio"));
  m.set("sta.justify.solver_escalations",
        metric(static_cast<double>(s.solver_escalations), "count"));
  m.set("sta.justify.escalation_payoff",
        metric(ratio(static_cast<double>(s.escalation_refutes),
                     static_cast<double>(s.solver_escalations)),
               "ratio"));
  m.set("sta.justify_cache.hit_ratio",
        metric(ratio(static_cast<double>(s.cache_hits),
                     static_cast<double>(s.cache_hits + s.cache_misses)),
               "ratio"));
  m.set("sta.justify_cache.prunes",
        metric(static_cast<double>(s.cache_prunes), "count"));
  m.set("sta.justify_cache.full_drop_ratio",
        metric(ratio(static_cast<double>(s.cache_full_drops),
                     static_cast<double>(s.cache_inserts + s.cache_full_drops)),
               "ratio"));
  m.set("sta.sched.busy_frac", metric(ratio(t.busy_s, t.capacity_s), "ratio"));
  m.set("sta.sched.max_source_frac", metric(t.max_source_frac, "ratio"));
  m.set("sta.sched.tasks_stolen",
        metric(static_cast<double>(s.tasks_stolen), "count"));
  m.set("sta.delaycalc.self_s", metric(self["sta.delaycalc"], "s"));
  m.set("sta.delaycalc.paths_timed",
        metric(static_cast<double>(t.paths_timed), "count"));
  m.set("sta.report.self_s", metric(self["sta.report"], "s"));
  m.set("sta.eco.impact_s", metric(self["sta.eco.impact"], "s"));
  m.set("sta.eco.dirty_frac",
        metric(ratio(static_cast<double>(t.eco_dirty),
                     static_cast<double>(t.eco_total)),
               "ratio"));
  m.set("server.session.self_s", metric(self["server.session"], "s"));
  m.set("trace.overhead_frac",
        metric(ratio(traced_s - untraced_s, untraced_s), "ratio"));
  m.set("trace.unattributed_frac",
        metric(ratio(wall_s - attributed - untraced_s, wall_s - untraced_s),
               "ratio"));

  JsonValue r = JsonValue::object();
  r.set("mismatches", JsonValue::number(t.mismatches));
  r.set("spans", JsonValue::number(static_cast<long>(events.size())));
  r.set("delaycalc_spans", JsonValue::number(delaycalc_spans));
  r.set("traced_wall_s", JsonValue::number(wall_s - untraced_s));
  r.set("attributed_s", JsonValue::number(attributed));
  r.set("metrics", m);
  std::cout << r.dump() << "\n";
  return 0;
}

/// The host-speed reference kernel: fixed work that no change to src/ can
/// touch.  Each thread walks a seeded random graph and probes and fills an
/// open-addressing table — pointer chasing and data-dependent branches over
/// a few hundred KB, as in the path search and its memo table.  The kernel
/// runs three times; the median wall time is printed.
int cmd_calib(const Args& a) {
  const int threads = std::stoi(a.need("threads"));
  constexpr int kNodes = 1 << 13;
  constexpr int kFanout = 3;
  constexpr std::size_t kSlots = std::size_t{1} << 15;
  constexpr long kSteps = 15'000'000;
  constexpr int kReps = 3;
  util::Rng rng(12345);
  std::vector<int> next(kNodes * kFanout);
  for (int v = 0; v < kNodes; ++v) {
    for (int k = 0; k < kFanout; ++k) {
      next[v * kFanout + k] =
          static_cast<int>((v + 1 + rng.next_below(1024)) % kNodes);
    }
  }
  std::vector<std::uint64_t> sums(threads);
  auto work = [&next, &sums](int t) {
    std::vector<std::uint64_t> memo(kSlots);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t + 1);
    std::uint64_t acc = 0;
    int v = t;
    for (long i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = next[v * kFanout + static_cast<int>(x % kFanout)];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL) ^ (acc & 0xff);
      std::uint64_t& slot = memo[key & (kSlots - 1)];
      if (slot == key) {
        acc += static_cast<std::uint64_t>(v);
      } else if ((key >> 7) & 1) {
        slot = key;
      } else {
        acc ^= key >> 3;
      }
    }
    sums[t] ^= acc;
  };
  std::vector<double> times;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch watch;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(work, t);
    for (std::thread& th : pool) th.join();
    times.push_back(watch.elapsed_seconds());
  }
  std::sort(times.begin(), times.end());
  std::uint64_t check = 0;
  for (const std::uint64_t v : sums) check ^= v;
  JsonValue r = JsonValue::object();
  r.set("seconds", JsonValue::number(times[kReps / 2]));
  r.set("check", JsonValue::number(static_cast<long>(check & 0xffffff)));
  std::cout << r.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.cmd == "gen") return cmd_gen(a);
    if (a.cmd == "golden") return cmd_golden(a);
    if (a.cmd == "trace") return cmd_trace(a);
    if (a.cmd == "calib") return cmd_calib(a);
    throw std::runtime_error("unknown subcommand '" + a.cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool: " << e.what() << "\n";
    return 1;
  }
}
