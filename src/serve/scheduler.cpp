#include "serve/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/artifact.hpp"
#include "serve/virtual_time.hpp"

namespace phonebit::serve {

namespace {

/// Ends a request's walk at its current stage with `status`.
void end_walk(CascadeRequestResult& rr, bool& active, RequestStatus status) {
  rr.stages.back().status = status;
  rr.status = std::move(status);
  active = false;
}

}  // namespace

Scheduler::Scheduler(std::string kind, std::string name,
                     SchedulerConfig config, FaultPlan faults)
    : who_(kind + " '" + name + "'"), name_(std::move(name)),
      config_(config), faults_(faults) {}

void Scheduler::add_shard(core::Engine& engine,
                          const oclsim::DeviceProfile& profile,
                          std::string label) {
  Shard s;
  s.engine = &engine;
  s.profile = profile;
  s.label = std::move(label);
  shards_.push_back(std::move(s));
}

const Scheduler::Shard& Scheduler::shard_at(int shard) const {
  PB_CHECK(shard >= 0 && shard < shard_count(),
           who_ << ": shard index " << shard << " out of range [0, "
                << shard_count() << ")");
  return shards_[static_cast<std::size_t>(shard)];
}

Scheduler::Shard& Scheduler::shard_at(int shard) {
  return const_cast<Shard&>(std::as_const(*this).shard_at(shard));
}

int Scheduler::find(const Shard& s, const std::string& model) {
  for (std::size_t k = 0; k < s.repo.size(); ++k) {
    if (s.repo[k].model == model) return static_cast<int>(k);
  }
  return -1;
}

Scheduler::Snapshot Scheduler::snapshot(int shard,
                                        const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Shard& s = shard_at(shard);
  const int k = find(s, model);
  return k >= 0 ? s.repo[static_cast<std::size_t>(k)].snap : Snapshot{};
}

std::shared_ptr<BatchRunner> Scheduler::make_runner(
    const Shard& s, const std::string& model, std::uint64_t version,
    std::shared_ptr<const artifact::LoadedArtifact> art) const {
  const std::string shard_tag = s.label.empty() ? "" : s.label + ":";
  return std::make_shared<BatchRunner>(
      *s.engine, std::move(art), config_.exec_workers,
      name_ + ":" + shard_tag + model + "@v" + std::to_string(version));
}

std::shared_ptr<const artifact::LoadedArtifact> Scheduler::checked_load(
    const Shard& s, const std::string& path) {
  // The fault-sequence number is consumed BEFORE the real load, so an
  // injected failure is deterministic no matter how the filesystem
  // behaves.
  const std::uint64_t seq = load_seq_++;
  PB_CHECK(!faults_.artifact_load_fails(seq),
           who_ << ": injected artifact-load fault for '" << path << "'"
                << (s.label.empty() ? "" : " on shard '" + s.label + "'")
                << " (load " << seq << ")");
  // Validates against THIS shard's profile: an artifact over its RAM
  // budget throws the itemized OutOfMemoryError and registers nothing.
  return s.engine->load_artifact_shared(path);
}

void Scheduler::load(int shard, const std::string& model,
                     const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shard_at(shard);
  PB_CHECK(find(s, model) < 0,
           who_ << ": model '" << model << "' is already loaded"
                << (s.label.empty() ? "" : " on shard '" + s.label + "'")
                << " — swap it instead");
  auto art = checked_load(s, path);
  s.repo.push_back(
      Entry{model, Snapshot{art, make_runner(s, model, 1, art), 1}});
}

void Scheduler::swap(int shard, const std::string& model,
                     const std::string& path) {
  (void)commit_swap(shard, model, path);
}

Scheduler::Snapshot Scheduler::commit_swap(int shard, const std::string& model,
                                           const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shard_at(shard);
  const int k = find(s, model);
  PB_CHECK(k >= 0,
           who_ << ": cannot swap model '" << model << "'"
                << (s.label.empty() ? "" : " on shard '" + s.label + "'")
                << " — not loaded");
  // Load + validate FIRST: if this throws, the entry is untouched and the
  // old version keeps serving (rollback is the no-op). A walk executing on
  // the old runner holds its own shared_ptr and drains on the old plan.
  auto art = checked_load(s, path);
  Snapshot& e = s.repo[static_cast<std::size_t>(k)].snap;
  const std::uint64_t v = e.version + 1;
  e = Snapshot{art, make_runner(s, model, v, art), v};
  return e;
}

std::uint64_t Scheduler::version(int shard, const std::string& model) const {
  return snapshot(shard, model).version;
}

std::vector<std::string> Scheduler::models(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const Entry& e : shard_at(shard).repo) names.push_back(e.model);
  return names;
}

std::size_t Scheduler::compiled_plans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    for (const Entry& e : s.repo) n += e.snap.runner->compiled_plans();
  }
  return n;
}

int Scheduler::total_arena_growth_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const Shard& s : shards_) {
    for (const Entry& e : s.repo) {
      n += e.snap.runner->total_arena_growth_events();
    }
  }
  return n;
}

const Scheduler::Price& Scheduler::price(int shard, const Snapshot& snap,
                                         const core::Blob& input,
                                         bool with_reuse) {
  const core::BlobDesc desc = core::describe_blob(input);
  const void* key = &snap.artifact->plan;
  Price* p = nullptr;
  for (Price& e : prices_) {
    if (e.plan == key && e.desc == desc) {
      p = &e;
      break;
    }
  }
  if (p != nullptr && !(with_reuse && p->cache_active && p->reuse_ms.empty())) {
    return *p;
  }
  // One probe forward on `shard` records the kernel event log, and
  // replay_modeled_ms prices it for every shard's profile — exactly, since
  // a KernelCost is geometry-pure, so one probe covers every request of
  // the shape on every shard. The probe runs against a plane cache: a
  // FILL run costs the same as a plain one and tells whether the plan
  // caches planes at all (interior-split input conv); a second forward
  // against the filled cache prices the split-skipped REUSE path.
  Shard& s = shard_at(shard);
  if (s.probe == nullptr) {
    s.probe = std::make_unique<core::ExecSession>(s.engine->create_session());
  }
  core::InputPlaneCache cache;
  core::RunOptions ro;
  ro.planes = &cache;
  auto probe = [&] {
    s.probe->reset_profile();
    (void)snap.artifact->plan.run(*s.probe, input, ro);
    std::vector<double> ms;
    for (const Shard& target : shards_) {
      ms.push_back(
          oclsim::replay_modeled_ms(s.probe->queue().events(), target.profile));
    }
    return ms;
  };
  if (p == nullptr) {
    p = &prices_.emplace_back();
    p->plan = key;
    p->desc = desc;
    p->plain_ms = probe();
    p->cache_active = cache.filled;
  }
  if (with_reuse && p->cache_active && p->reuse_ms.empty()) {
    if (!cache.filled) (void)probe();  // priced earlier: fill the planes again
    p->reuse_ms = probe();
  }
  return *p;
}

WalkResult Scheduler::walk(const CascadeSpec* spec,
                           const std::vector<Request>& workload,
                           std::vector<SwapEvent> swaps) {
  if (spec != nullptr) validate_cascade(*spec, who_);
  PB_CHECK(!running_.exchange(true, std::memory_order_acq_rel),
           who_ << ": run called concurrently — one trace at a time");
  struct RunningGuard {
    std::atomic<bool>& flag;
    ~RunningGuard() { flag.store(false, std::memory_order_release); }
  } guard{running_};

  const double wall0 = now_ms();
  const std::size_t n = workload.size();
  const auto nshards = static_cast<std::size_t>(shard_count());
  const int nstages =
      spec != nullptr ? static_cast<int>(spec->stages.size()) : 1;
  WalkResult out;
  CascadeSummary& summary = out.summary;
  summary.requests = static_cast<int>(n);
  summary.results.resize(n);
  summary.stage_assignment.assign(static_cast<std::size_t>(nstages),
                                  std::vector<int>(nshards, 0));
  out.shards.resize(nshards);
  out.queue_depth.assign(n, 0);

  // --- The repository as this walk sees it ------------------------------
  //
  // Every model the walk can route to gets a per-shard timeline: its
  // snapshot at walk start, then each scheduled swap that committed, in
  // time order. The swaps commit upfront (same load-sequence fault keying
  // and final repository state as applying them one by one), and every
  // decision resolves its artifact AT ITS OWN virtual time — a cascade
  // revisits earlier virtual times after later ones, so no monotone
  // "apply swaps up to now" cursor would do.
  struct Version {
    double at_ms;
    Snapshot snap;
  };
  std::vector<std::string> names;
  std::vector<std::vector<std::vector<Version>>> lines;  // [model][shard]
  auto model_index = [&names](const std::string& m) {
    const auto it = std::find(names.begin(), names.end(), m);
    if (it != names.end()) return static_cast<int>(it - names.begin());
    names.push_back(m);
    return static_cast<int>(names.size()) - 1;
  };
  std::vector<int> route;  // stage (cascade) or request (plain) -> model
  if (spec != nullptr) {
    for (const CascadeStageSpec& st : spec->stages) {
      route.push_back(model_index(st.model));
    }
  } else {
    for (const Request& rq : workload) route.push_back(model_index(rq.model));
  }
  for (const SwapEvent& ev : swaps) model_index(ev.model);
  for (const std::string& m : names) {
    auto& per_shard = lines.emplace_back(nshards);
    for (std::size_t si = 0; si < nshards; ++si) {
      per_shard[si].push_back(
          Version{-std::numeric_limits<double>::infinity(),
                  snapshot(static_cast<int>(si), m)});
    }
  }
  std::stable_sort(swaps.begin(), swaps.end(),
                   [](const SwapEvent& a, const SwapEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  for (const SwapEvent& ev : swaps) {
    try {
      Snapshot committed = commit_swap(0, ev.model, ev.path);
      ++summary.swaps;
      lines[static_cast<std::size_t>(model_index(ev.model))][0].push_back(
          Version{ev.at_ms, std::move(committed)});
    } catch (const Error&) {
      // Injected load fault or a corrupt/over-budget artifact: the old
      // version keeps serving — the swap rolled back.
      ++summary.swap_rollbacks;
    }
  }
  auto version_at = [&lines](int model, std::size_t shard,
                             double t) -> const Snapshot& {
    const auto& vs = lines[static_cast<std::size_t>(model)][shard];
    std::size_t k = 0;
    while (k + 1 < vs.size() && vs[k + 1].at_ms <= t) ++k;
    return vs[k].snap;
  };

  // --- The stage rounds -------------------------------------------------
  //
  // Per-request walk state: `t0` is the trace arrival (the deadline epoch);
  // `arrive` is when the request reaches its next stage or, once its walk
  // ends, when it ended (its latency is `arrive - t0`); `cache_shard` is
  // the shard whose device holds its filled input planes (-1: none yet) —
  // later stages price the split-skipped cost THERE, so reuse affinity
  // competes with device speed and queue wait inside the placement score.
  // All of it is decision-time knowledge: pricing never depends on real
  // execution.
  struct Walk {
    double t0 = 0.0;
    double arrive = 0.0;
    bool active = true;
    int cache_shard = -1;
    core::InputPlaneCache planes;
  };
  std::vector<Walk> walks(n);
  for (std::size_t i = 0; i < n; ++i) {
    walks[i].t0 = walks[i].arrive = std::max(workload[i].arrival_ms, 0.0);
  }
  // One lane heap per shard spans ALL stages: stage s+1 dispatches contend
  // with stage s's bookings. Lane free-times only move forward, so stage
  // rounds drain in priority order (DESIGN.md §13).
  std::vector<LaneHeap> lanes(nshards, LaneHeap(config_.lanes));

  struct ExecReq {
    std::size_t idx;
    bool attach_planes;
  };
  struct ExecGroup {
    std::shared_ptr<BatchRunner> runner;
    std::vector<ExecReq> reqs;
  };
  struct Scored {
    double score;
    int shard;
  };
  std::vector<const Snapshot*> snaps(nshards);
  std::vector<int> candidates;
  std::vector<Scored> scored;
  std::vector<std::size_t> entrants;

  for (int s = 0; s < nstages; ++s) {
    const std::string where =
        spec != nullptr ? "cascade '" + spec->name + "' stage " +
                              std::to_string(s) + ": "
                        : "";
    entrants.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (walks[i].active) entrants.push_back(i);
    }
    if (entrants.empty()) break;
    std::stable_sort(entrants.begin(), entrants.end(),
                     [&walks](std::size_t a, std::size_t b) {
                       return walks[a].arrive < walks[b].arrive;
                     });

    // Fresh admission queues per round (the lanes carry the cross-stage
    // load): `waiting[si]` holds the dispatch times of admitted requests
    // not yet on a lane, nondecreasing, so expiring the front is enough.
    std::vector<std::deque<double>> waiting(nshards);
    std::vector<ExecGroup> groups;

    for (const std::size_t idx : entrants) {
      const Request& rq = workload[idx];
      Walk& wk = walks[idx];
      CascadeRequestResult& rr = summary.results[idx];
      StageOutcome& so = rr.stages.emplace_back();
      const double t = wk.arrive;
      const int model =
          route[spec != nullptr ? static_cast<std::size_t>(s) : idx];
      const std::string& model_name = names[static_cast<std::size_t>(model)];
      auto stop = [&rr, &wk](StatusCode code, std::string error = {}) {
        end_walk(rr, wk.active, RequestStatus{code, std::move(error)});
      };
      auto note_depth = [&out, idx](std::size_t si, std::size_t depth) {
        int& shard_max = out.shards[si].max_queue_depth;
        shard_max = std::max(shard_max, static_cast<int>(depth));
        out.queue_depth[idx] =
            std::max(out.queue_depth[idx], static_cast<int>(depth));
      };

      for (std::deque<double>& w : waiting) {
        while (!w.empty() && w.front() <= t) w.pop_front();
      }

      // Candidates: shards serving the model at this request's exact
      // shape. A request no shard can serve fails here, before admission:
      // it never holds a queue slot, so it costs its neighbours nothing.
      const core::BlobDesc desc = core::describe_blob(rq.input);
      auto serves_error = [&](const Snapshot& snap) {
        return where + "model '" + model_name + "' serves " +
               snap.artifact->plan.input().str() + ", got " + desc.str();
      };
      candidates.clear();
      int loaded = -1;
      for (std::size_t si = 0; si < nshards; ++si) {
        snaps[si] = &version_at(model, si, t);
        if (snaps[si]->artifact == nullptr) continue;
        if (loaded < 0) loaded = static_cast<int>(si);
        if (snaps[si]->artifact->plan.input() == desc) {
          candidates.push_back(static_cast<int>(si));
        }
      }
      if (candidates.empty()) {
        stop(StatusCode::kFailed,
             loaded >= 0
                 ? serves_error(*snaps[static_cast<std::size_t>(loaded)])
                 : where + "model '" + model_name + "' is not loaded" +
                       (nshards > 1 ? " on any shard" : ""));
        continue;
      }

      // Placement: score = modeled cost on the shard + wait_weight * its
      // lane wait; try best first, spill past full shards, shed only when
      // every candidate is full. The lowest-index candidate's probe prices
      // every shard; a lone candidate needs no score and is priced at
      // dispatch instead.
      const bool with_reuse = wk.cache_shard >= 0;
      auto cost = [&wk](const Price& p, int si) {
        const auto u = static_cast<std::size_t>(si);
        return p.cache_active && wk.cache_shard == si ? p.reuse_ms[u]
                                                      : p.plain_ms[u];
      };
      const Price* pr = nullptr;
      scored.clear();
      if (candidates.size() > 1) {
        const int probe = candidates.front();
        pr = &price(probe, *snaps[static_cast<std::size_t>(probe)], rq.input,
                    with_reuse);
        for (const int si : candidates) {
          const double wait = std::max(
              0.0, lanes[static_cast<std::size_t>(si)].min() - t);
          scored.push_back(
              Scored{cost(*pr, si) + config_.wait_weight * wait, si});
        }
        std::sort(scored.begin(), scored.end(),
                  [](const Scored& a, const Scored& b) {
                    if (a.score != b.score) return a.score < b.score;
                    return a.shard < b.shard;
                  });
      } else {
        scored.push_back(Scored{0.0, candidates.front()});
      }
      int placed = -1;
      for (const Scored& sc : scored) {
        const auto si = static_cast<std::size_t>(sc.shard);
        note_depth(si, waiting[si].size());
        if (static_cast<int>(waiting[si].size()) >= config_.queue_limit) {
          ++so.spillovers;  // reject-to-next-shard, not reject-the-user
          continue;
        }
        placed = sc.shard;
        break;
      }
      if (placed < 0) {
        so.plan_version =
            snaps[static_cast<std::size_t>(scored.front().shard)]->version;
        stop(StatusCode::kShed);
        continue;
      }

      // Dispatch: the request waits for the shard's earliest free lane and
      // runs on the version current at that instant.
      const auto pi = static_cast<std::size_t>(placed);
      ++summary.stage_assignment[static_cast<std::size_t>(s)][pi];
      so.shard = placed;
      const double start = std::max(t, lanes[pi].min());
      const Snapshot& snap = version_at(model, pi, start);
      so.plan_version = snap.version;
      so.queue_ms = start - t;
      rr.queue_ms += so.queue_ms;
      waiting[pi].push_back(start);
      note_depth(pi, waiting[pi].size());

      // Deadline shed at dispatch, BEFORE execution, at zero lane cost. The
      // budget runs from the ORIGINAL arrival, so a cascade's later stages
      // inherit what earlier ones left.
      const double deadline =
          rq.deadline_ms > 0.0
              ? rq.deadline_ms
              : (rq.deadline_ms < 0.0 ? 0.0 : config_.default_deadline_ms);
      if (deadline > 0.0 && start - wk.t0 > deadline) {
        stop(StatusCode::kDeadlineExceeded);
        so.latency_ms = start - t;
        wk.arrive = start;
        continue;
      }
      if (snap.artifact != snaps[pi]->artifact) {
        // A scheduled swap committed while the request waited.
        if (!(snap.artifact->plan.input() == desc)) {
          stop(StatusCode::kFailed, serves_error(snap));
          continue;
        }
        pr = nullptr;
      }
      if (pr == nullptr) pr = &price(placed, snap, rq.input, with_reuse);

      // Attempt loop in virtual time: modeled cost plus injected spikes,
      // retries bounded by the budget AND the deadline (virtual_time.hpp).
      const AttemptOutcome att = simulate_attempts(
          faults_, spec != nullptr ? cascade_fault_key(idx, s) : idx,
          cost(*pr, placed), config_.max_retries, config_.retry_backoff_ms,
          start, wk.t0, deadline);
      so.attempts = att.attempts;
      so.retries = att.retries;
      so.reused_planes = pr->cache_active && wk.cache_shard == placed;
      lanes[pi].advance_min(start + att.dur_ms);
      out.shards[pi].busy_ms += att.dur_ms;
      wk.arrive = start + att.dur_ms;
      out.shards[pi].end_ms = std::max(out.shards[pi].end_ms, wk.arrive);
      so.latency_ms = wk.arrive - t;
      if (!att.ok) {
        if (att.gave_up_deadline) {
          stop(StatusCode::kDeadlineExceeded);
        } else {
          stop(StatusCode::kFailed, "transient fault persisted after " +
                                        std::to_string(att.attempts) +
                                        " attempts");
        }
        continue;
      }
      so.status.code = StatusCode::kOk;
      // An Ok run through a cache-active plan fills the request's planes
      // on this shard; a cascade hands the cache to every run on its home
      // shard (a plain run has no later stage to reuse it).
      if (pr->cache_active && wk.cache_shard < 0) wk.cache_shard = placed;
      const bool attach =
          spec != nullptr && pr->cache_active && wk.cache_shard == placed;
      ExecGroup* g = nullptr;
      for (ExecGroup& cand : groups) {
        if (cand.runner == snap.runner) g = &cand;
      }
      if (g == nullptr) g = &groups.emplace_back(ExecGroup{snap.runner, {}});
      g->reqs.push_back(ExecReq{idx, attach});
    }

    // Real forwards of this round's Ok requests, one batch per model
    // version. Inputs are BORROWED — every stage reads the same original
    // blob — and outputs are bit-exact at any worker count. An execution
    // failure downgrades that request, and only that request, to Failed.
    for (ExecGroup& g : groups) {
      std::vector<const core::Blob*> inputs;
      std::vector<core::InputPlaneCache*> planes;
      for (const ExecReq& er : g.reqs) {
        inputs.push_back(&workload[er.idx].input);
        planes.push_back(er.attach_planes ? &walks[er.idx].planes : nullptr);
      }
      BatchSummary batch = g.runner->run(inputs, planes);
      for (std::size_t k = 0; k < g.reqs.size(); ++k) {
        const std::size_t idx = g.reqs[k].idx;
        CascadeRequestResult& rr = summary.results[idx];
        if (batch.statuses[k].ok()) {
          rr.result = std::move(batch.results[k]);
        } else {
          end_walk(rr, walks[idx].active, std::move(batch.statuses[k]));
        }
      }
    }

    // Gates, sequenced after the round so every verdict reads a finished
    // forward. Reaching the last stage Ok completes the walk.
    for (const ExecGroup& g : groups) {
      for (const ExecReq& er : g.reqs) {
        Walk& wk = walks[er.idx];
        if (!wk.active) continue;
        CascadeRequestResult& rr = summary.results[er.idx];
        if (s + 1 == nstages) {
          wk.active = false;
          continue;
        }
        const GateVerdict v = evaluate_gate(
            spec->stages[static_cast<std::size_t>(s)].gate, rr.result.output);
        if (!v.ok) {
          end_walk(rr, wk.active, RequestStatus{StatusCode::kFailed,
                                                where + "gate: " + v.error});
        } else if (v.pass) {
          rr.stages.back().gate_passed = true;
        } else {
          rr.gated_out = true;
          wk.active = false;
        }
      }
    }
    for (const std::size_t idx : entrants) {
      if (!walks[idx].active) {
        summary.results[idx].latency_ms = walks[idx].arrive - walks[idx].t0;
      }
    }
  }

  summary.wall_ms = now_ms() - wall0;
  return out;
}

}  // namespace phonebit::serve
