#include "src/trigger/engine.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "src/common/fault.h"
#include "src/common/macros.h"
#include "src/cypher/plan/plan_executor.h"
#include "src/ivm/ivm_manager.h"
#include "src/storage/snapshot.h"
#include "src/trigger/async_executor.h"
#include "src/trigger/database.h"
#include "src/trigger/trigger_plan.h"

namespace pgt {

namespace {

/// Labels of a node, falling back to the delta's deleted image when the
/// node is gone (matching runs against deltas of committed transactions for
/// DETACHED triggers, where no transaction ghost map exists). Returns a
/// view into the record / image — event matching walks every delta entry
/// per action time, so a by-value copy here is a per-event allocation.
const std::vector<LabelId>& LabelsOf(const GraphStore& store,
                                     const GraphDelta& delta, NodeId id) {
  if (store.NodeAlive(id)) return store.GetNode(id)->labels;
  for (const DeletedNodeImage& img : delta.deleted_nodes) {
    if (img.id == id) return img.labels;
  }
  static const std::vector<LabelId> kEmpty;
  return kEmpty;
}

/// Type of a relationship, falling back to the delta's deleted image when
/// the store holds no record at all (mirror of LabelsOf: kCreate/kSet/
/// kRemove events on a relationship that is deleted later in the same
/// transaction must still match). A tombstoned record keeps its immutable
/// type, so one GetRel covers both the alive and the same-store-deleted
/// case; the image scan only runs for deltas examined against a store that
/// never materialized the rel.
std::optional<RelTypeId> RelTypeOf(const GraphStore& store,
                                   const GraphDelta& delta, RelId id) {
  if (const RelRecord* r = store.GetRel(id); r != nullptr) return r->type;
  for (const DeletedRelImage& img : delta.deleted_rels) {
    if (img.id == id) return img.type;
  }
  return std::nullopt;
}

/// Target label of a node trigger, resolved once per definition and cached
/// (interner ids are stable; a miss is re-looked-up — the label may be
/// interned later).
std::optional<LabelId> ResolveTargetLabel(const TriggerDef& def,
                                          const GraphStore& store) {
  const int64_t cached = def.target_label_cache.load();
  if (cached >= 0) return static_cast<LabelId>(cached);
  auto id = store.LookupLabel(def.label);
  if (id.has_value()) def.target_label_cache.store(*id);
  return id;
}

/// One matched event occurrence.
struct Entry {
  uint64_t id = 0;
  bool has_old = false;
  bool has_new = false;
  bool has_overlay = false;
  PropKeyId key = kInvalidSymbol;
  Value old_value;
};

/// Turns one trigger's matched entries into activations (FOR EACH: one per
/// entry; FOR ALL: one batched, deduplicated). Envs come from `env_pool`
/// when given (engine-internal dispatch), so a steady-state round reuses
/// warm buffers instead of allocating.
void BuildActivations(std::shared_ptr<const TriggerDef> def,
                      const std::vector<Entry>& entries,
                      TransitionEnvPool* env_pool,
                      std::vector<Activation>* out) {
  if (entries.empty()) return;
  const bool is_node = def->item == ItemKind::kNode;
  // Variable names resolve to interned ids once per definition; everything
  // below is integer-keyed.
  const cypher::TransVarId new_var = def->NewVarId();
  const cypher::TransVarId old_var = def->OldVarId();

  auto item_value = [&](uint64_t id) {
    return is_node ? Value::Node(NodeId{id}) : Value::Rel(RelId{id});
  };
  auto acquire_env = [&](Activation& act) {
    if (env_pool != nullptr) act.env = env_pool->Acquire();
  };
  auto add_overlay = [&](cypher::TransitionEnv& env, const Entry& e) {
    if (!e.has_overlay) return;
    // Appended in event order; Seal keeps the first entry per (item, key) —
    // the pre-statement image.
    if (is_node) {
      env.AddOldNodeProp(e.id, e.key, e.old_value);
    } else {
      env.AddOldRelProp(e.id, e.key, e.old_value);
    }
  };

  if (def->granularity == Granularity::kEach) {
    for (const Entry& e : entries) {
      Activation act;
      act.trigger = def;
      acquire_env(act);
      if (e.has_new) {
        act.env.SetSingle(new_var, item_value(e.id));
        // NEW is also usable as a pseudo-label: MATCH (pn:NEW)-...
        act.env.MutableSet(new_var, is_node).ids.push_back(e.id);
      }
      if (e.has_old) {
        act.env.SetSingle(old_var, item_value(e.id));
        act.env.MutableSet(old_var, is_node).ids.push_back(e.id);
        act.env.MarkOldView(old_var);
        add_overlay(act.env, e);
      }
      act.env.Seal();
      out->push_back(std::move(act));
    }
  } else {
    Activation act;
    act.trigger = def;
    acquire_env(act);
    std::vector<uint64_t> old_ids, new_ids;
    std::set<uint64_t> seen_old, seen_new;
    for (const Entry& e : entries) {
      if (e.has_old && seen_old.insert(e.id).second) old_ids.push_back(e.id);
      if (e.has_new && seen_new.insert(e.id).second) new_ids.push_back(e.id);
      add_overlay(act.env, e);
    }
    if (!new_ids.empty()) {
      act.env.MutableSet(new_var, is_node).ids = std::move(new_ids);
    }
    if (!old_ids.empty()) {
      act.env.MutableSet(old_var, is_node).ids = std::move(old_ids);
      act.env.MarkOldView(old_var);
    }
    act.env.Seal();
    out->push_back(std::move(act));
  }
}

}  // namespace

/// Per-trigger entry buckets of one Derive walk, kept as engine scratch so
/// the per-statement dispatch allocates nothing once warm. The buffers are
/// only live within a single Derive call (activation derivation never
/// re-enters the engine).
struct PgTriggerEngine::MatchScratch {
  struct Bucket {
    std::shared_ptr<const TriggerDef> def;
    std::vector<Entry> entries;
  };
  std::vector<Bucket> buckets;
  std::unordered_map<const TriggerDef*, size_t> bucket_of;
  // Retired entry buffers, recycled into new buckets.
  std::vector<std::vector<Entry>> free_entries;

  void Reset() {
    for (Bucket& b : buckets) {
      b.def.reset();
      b.entries.clear();
      if (free_entries.size() < 64) {
        free_entries.push_back(std::move(b.entries));
      }
    }
    buckets.clear();
    bucket_of.clear();
  }

  std::vector<Entry> AcquireEntries() {
    if (free_entries.empty()) return {};
    std::vector<Entry> e = std::move(free_entries.back());
    free_entries.pop_back();
    return e;
  }
};

PgTriggerEngine::PgTriggerEngine(Database* db)
    : db_(db), scratch_(std::make_unique<MatchScratch>()) {}

PgTriggerEngine::~PgTriggerEngine() = default;

std::vector<Activation> PgTriggerEngine::MatchActivations(
    const TriggerDef& def, const GraphDelta& delta) {
  // A one-trigger index over a non-owning alias: callers (tests, benches)
  // pass stack-allocated defs; the activations must not outlive them.
  DispatchIndex index;
  index.Add(std::shared_ptr<const TriggerDef>(
      std::shared_ptr<const TriggerDef>(), &def));
  return Derive(index, def.time, delta, /*pool=*/nullptr);
}

std::vector<Activation> PgTriggerEngine::Derive(DispatchIndex& index,
                                                ActionTime time,
                                                const GraphDelta& delta,
                                                TransitionEnvPool* pool) {
  const GraphStore& store = db_->store();
  if (index.HasPending()) index.ResolvePending(store);

  // Per-trigger entry buckets, created in first-match order. Each trigger
  // reads exactly one delta category, so every trigger sees its entries in
  // delta order. Buckets live in engine scratch: cleared per call,
  // capacity kept.
  MatchScratch& scratch = *scratch_;
  scratch.Reset();
  auto& buckets = scratch.buckets;
  auto& bucket_of = scratch.bucket_of;

  auto emit = [&](const DispatchIndex::TriggerList* defs, const Entry& e) {
    if (defs == nullptr) return;
    for (const std::shared_ptr<const TriggerDef>& def : *defs) {
      auto [it, inserted] = bucket_of.try_emplace(def.get(), buckets.size());
      if (inserted) {
        buckets.push_back(
            MatchScratch::Bucket{def, scratch.AcquireEntries()});
      }
      buckets[it->second].entries.push_back(e);
    }
  };
  auto probe = [&](ItemKind item, TriggerEvent event, uint32_t sym,
                   PropKeyId prop) {
    return index.Probe(EventKey{time, item, event, sym, prop});
  };
  const LabelEventSemantics label_sem = db_->options().label_event_semantics;

  // --- CREATE ---------------------------------------------------------------
  for (NodeId id : delta.created_nodes) {
    const Entry e{id.value, false, true, false, kInvalidSymbol, Value()};
    for (LabelId l : LabelsOf(store, delta, id)) {
      emit(probe(ItemKind::kNode, TriggerEvent::kCreate, l, kInvalidSymbol),
           e);
    }
  }
  for (RelId id : delta.created_rels) {
    if (std::optional<RelTypeId> t = RelTypeOf(store, delta, id)) {
      emit(probe(ItemKind::kRelationship, TriggerEvent::kCreate, *t,
                 kInvalidSymbol),
           Entry{id.value, false, true, false, kInvalidSymbol, Value()});
    }
  }

  // --- DELETE ---------------------------------------------------------------
  for (const DeletedNodeImage& img : delta.deleted_nodes) {
    const Entry e{img.id.value, true, false, false, kInvalidSymbol, Value()};
    for (LabelId l : img.labels) {
      emit(probe(ItemKind::kNode, TriggerEvent::kDelete, l, kInvalidSymbol),
           e);
    }
  }
  for (const DeletedRelImage& img : delta.deleted_rels) {
    emit(probe(ItemKind::kRelationship, TriggerEvent::kDelete, img.type,
               kInvalidSymbol),
         Entry{img.id.value, true, false, false, kInvalidSymbol, Value()});
  }

  // --- SET / REMOVE property events ----------------------------------------
  for (const NodePropChange& pc : delta.assigned_node_props) {
    const Entry e{pc.node.value, true, true, true, pc.key, pc.old_value};
    for (LabelId l : LabelsOf(store, delta, pc.node)) {
      emit(probe(ItemKind::kNode, TriggerEvent::kSet, l, pc.key), e);
    }
  }
  for (const NodePropChange& pc : delta.removed_node_props) {
    const Entry e{pc.node.value, true, false, true, pc.key, pc.old_value};
    for (LabelId l : LabelsOf(store, delta, pc.node)) {
      emit(probe(ItemKind::kNode, TriggerEvent::kRemove, l, pc.key), e);
    }
  }
  for (const RelPropChange& pc : delta.assigned_rel_props) {
    if (std::optional<RelTypeId> t = RelTypeOf(store, delta, pc.rel)) {
      emit(probe(ItemKind::kRelationship, TriggerEvent::kSet, *t, pc.key),
           Entry{pc.rel.value, true, true, true, pc.key, pc.old_value});
    }
  }
  for (const RelPropChange& pc : delta.removed_rel_props) {
    if (std::optional<RelTypeId> t = RelTypeOf(store, delta, pc.rel)) {
      emit(probe(ItemKind::kRelationship, TriggerEvent::kRemove, *t, pc.key),
           Entry{pc.rel.value, true, false, true, pc.key, pc.old_value});
    }
  }

  // --- SET / REMOVE label events (nodes only) -------------------------------
  // kMonitoredLabel: the changed label itself is the event key.
  // kTargetSetChange: the trigger fires when some *other* label changes on a
  // node carrying the target, so each of the node's labels except the
  // changed one is a candidate key.
  auto emit_label_events = [&](const std::vector<LabelChange>& changes,
                               TriggerEvent event, bool has_old,
                               bool has_new) {
    for (const LabelChange& lc : changes) {
      const Entry e{lc.node.value, has_old, has_new, false, kInvalidSymbol,
                    Value()};
      if (label_sem == LabelEventSemantics::kMonitoredLabel) {
        emit(probe(ItemKind::kNode, event, lc.label, kInvalidSymbol), e);
      } else {
        for (LabelId l : LabelsOf(store, delta, lc.node)) {
          if (l != lc.label) {
            emit(probe(ItemKind::kNode, event, l, kInvalidSymbol), e);
          }
        }
      }
    }
  };
  emit_label_events(delta.assigned_labels, TriggerEvent::kSet,
                    /*has_old=*/false, /*has_new=*/true);
  emit_label_events(delta.removed_labels, TriggerEvent::kRemove,
                    /*has_old=*/true, /*has_new=*/false);

  // Cross-bucket execution order: Section 4.2 "Order of execution".
  const TriggerOrdering ordering = db_->options().trigger_ordering;
  std::sort(buckets.begin(), buckets.end(),
            [ordering](const MatchScratch::Bucket& a,
                       const MatchScratch::Bucket& b) {
              return TriggerCatalog::ExecutionOrderLess(ordering, *a.def,
                                                        *b.def);
            });

  std::vector<Activation> out = AcquireActs();
  for (MatchScratch::Bucket& b : buckets) {
    BuildActivations(std::move(b.def), b.entries, pool, &out);
  }
  return out;
}

std::vector<Activation> PgTriggerEngine::MatchAll(ActionTime time,
                                                  const GraphDelta& delta) {
  // O(1) early-out: no enabled trigger of this action time means no event
  // can match — skip the delta walk entirely.
  if (db_->catalog().EnabledCount(time) == 0) return {};
  if (delta.Empty()) return {};
  return Derive(db_->catalog().dispatch(), time, delta, &env_pool_);
}

namespace {

/// Slot of a transition variable in a compiled trigger program, -1 if the
/// program was compiled without it. Ids on both sides: integer compares.
int SeedSlotFor(const cypher::plan::TriggerProgram& prog,
                cypher::TransVarId var) {
  for (const auto& [v, s] : prog.seed_slots) {
    if (v == var) return s;
  }
  return -1;
}

}  // namespace

cypher::plan::Frame PgTriggerEngine::SeedFrame(
    const cypher::plan::TriggerProgram& prog, const Activation& act,
    cypher::plan::PlanExecutor& exec) {
  // Seed slots and env bindings are both keyed by interned TransVarId —
  // matching them is integer compares, and the frame buffer itself comes
  // from the pool. Every activation the engine derives binds exactly the
  // program's seed variables (TriggerCompileEnv mirrors BuildActivations).
  cypher::plan::Frame seed = exec.NewFrame();
  for (const auto& [var, v] : act.env.singles) {
    const int slot = SeedSlotFor(prog, var);
    if (slot >= 0) seed.Set(slot, v);
  }
  if (act.trigger->granularity == Granularity::kAll) {
    for (const auto& [var, sb] : act.env.sets) {
      const int slot = SeedSlotFor(prog, var);
      if (slot < 0) continue;
      Value::List items;
      items.reserve(sb.ids.size());
      for (uint64_t id : sb.ids) {
        items.push_back(sb.is_node ? Value::Node(NodeId{id})
                                   : Value::Rel(RelId{id}));
      }
      seed.Set(slot, Value::MakeList(std::move(items)));
    }
  }
  return seed;
}

Status PgTriggerEngine::RunPlans(cypher::EvalContext& ctx,
                                 const Activation& act,
                                 const TriggerPlans& plans, TriggerStats& ts,
                                 ivm::TriggerIvmState* ivm_state) {
  const cypher::plan::TriggerProgram& prog = plans.program;
  cypher::plan::PlanExecutor exec(ctx, prog.slot_names,
                                  &db_->frame_pool());
  cypher::plan::Frame seed = SeedFrame(prog, act, exec);

  std::vector<cypher::plan::Frame> frames = exec.NewFrameVec();
  if (prog.when_expr != nullptr) {
    PGT_ASSIGN_OR_RETURN(bool pass,
                         exec.EvalPredicate(*prog.when_expr, seed));
    if (!pass) {
      exec.Recycle(std::move(seed));
      return Status::OK();
    }
    frames.push_back(std::move(seed));
  } else if (!prog.when_steps.empty()) {
    // Incremental WHEN: when maintained match state exists, the condition
    // is a state lookup producing exactly the frames the pipeline would
    // (tests/test_ivm_differential.cc asserts byte-identity). A false
    // return is the defensive fallback — run the pipeline as the oracle.
    const bool served =
        ivm_state != nullptr && ivm_state->CollectFrames(exec, seed, &frames);
    if (!served) {
      std::vector<cypher::plan::Frame> start = exec.NewFrameVec();
      start.push_back(exec.CopyFrame(seed));
      PGT_ASSIGN_OR_RETURN(frames,
                           exec.RunClauses(prog.when_steps, std::move(start)));
    }
    if (frames.empty()) {
      exec.Recycle(std::move(seed));
      return Status::OK();
    }
    // Transition variables are "the handlers to the part of the graph that
    // has been modified" (Section 6.2): they stay in scope for the action
    // even when the condition pipeline's WITH clauses re-scoped the rows.
    for (cypher::plan::Frame& f : frames) {
      for (const auto& [var, slot] : prog.seed_slots) {
        (void)var;
        if (!f.Bound(slot) && seed.Bound(slot)) {
          f.Set(slot, seed.slots[static_cast<size_t>(slot)].v);
        }
      }
    }
    exec.Recycle(std::move(seed));
  } else {
    frames.push_back(std::move(seed));
  }
  ++ts.fired;
  ts.action_rows += frames.size();
  return exec.RunUpdates(prog.action_steps, std::move(frames));
}

namespace {

/// Scopes ExecBudget::current_trigger to one activation so a budget abort
/// names the trigger that was executing (restores the enclosing trigger's
/// name on exit — cascades nest).
class BudgetTriggerScope {
 public:
  BudgetTriggerScope(cypher::ExecBudget* budget, const std::string* name)
      : budget_(budget) {
    if (budget_ != nullptr) {
      prev_ = budget_->current_trigger;
      budget_->current_trigger = name;
    }
  }
  ~BudgetTriggerScope() {
    if (budget_ != nullptr) budget_->current_trigger = prev_;
  }
  BudgetTriggerScope(const BudgetTriggerScope&) = delete;
  BudgetTriggerScope& operator=(const BudgetTriggerScope&) = delete;

 private:
  cypher::ExecBudget* budget_;
  const std::string* prev_ = nullptr;
};

}  // namespace

Status PgTriggerEngine::RunActivation(Transaction& tx, const Activation& act) {
  const TriggerDef& def = *act.trigger;
  TriggerStats& ts = stats_.per_trigger[def.name];
  ++ts.considered;

  // Chaos hook: lets the fault suite fail a specific trigger's firings on
  // demand (exercising the circuit breaker without a broken action).
  PGT_RETURN_IF_ERROR(FaultRegistry::Global().Hit("engine.activation"));

  cypher::EvalContext ctx = db_->MakeEvalContext(&tx, nullptr, &act.env);
  BudgetTriggerScope budget_scope(ctx.budget, &def.name);
  // Runtime guard for the Section 4.2 rule: the statement may not set or
  // remove the trigger's target label (catches dynamic cases the static
  // install check cannot see).
  if (def.item == ItemKind::kNode) {
    auto target = ResolveTargetLabel(def, db_->store());
    if (target.has_value()) {
      // Small trivially-copyable capture (fits std::function's inline
      // buffer — no heap allocation per activation); the definition
      // outlives the guard via the activation's shared ownership.
      const LabelId target_label = *target;
      const TriggerDef* def_ptr = &def;
      ctx.label_write_guard = [target_label,
                               def_ptr](LabelId l, bool) -> Status {
        if (l == target_label) {
          return Status::ConstraintViolation(
              "trigger '" + def_ptr->name +
              "' attempted to set/remove its target label (Section 4.2)");
        }
        return Status::OK();
      };
    }
  }

  PGT_ASSIGN_OR_RETURN(
      const std::shared_ptr<const TriggerPlans> plans,
      GetOrCompileTriggerPlans(def, db_->store(), db_->PlanEpoch(),
                               &db_->plan_compile_counters()));
  ivm::TriggerIvmState* ivm_state = nullptr;
  if (db_->options().use_ivm) {
    ivm_state = db_->ivm().Acquire(def, plans, db_->PlanEpoch());
  }
  return RunPlans(ctx, act, *plans, ts, ivm_state);
}

Status PgTriggerEngine::ValidateBeforeDelta(const TriggerDef& def,
                                            const Activation& act,
                                            const GraphDelta& delta) const {
  auto fail = [&](const std::string& what) {
    return Status::ConstraintViolation(
        "BEFORE trigger '" + def.name + "' " + what +
        "; BEFORE triggers may only condition NEW states (Section 4)");
  };
  if (!delta.created_nodes.empty() || !delta.created_rels.empty() ||
      !delta.deleted_nodes.empty() || !delta.deleted_rels.empty() ||
      !delta.assigned_labels.empty() || !delta.removed_labels.empty()) {
    return fail("changed graph structure");
  }
  std::set<uint64_t> allowed;
  const cypher::TransitionEnv::SetBinding* set =
      act.env.FindSet(def.NewVarId());
  if (set != nullptr) allowed.insert(set->ids.begin(), set->ids.end());
  auto check_node = [&](const NodePropChange& pc) -> Status {
    if (def.item != ItemKind::kNode || allowed.count(pc.node.value) == 0) {
      return fail("modified an item outside its NEW transition set");
    }
    return Status::OK();
  };
  auto check_rel = [&](const RelPropChange& pc) -> Status {
    if (def.item != ItemKind::kRelationship ||
        allowed.count(pc.rel.value) == 0) {
      return fail("modified an item outside its NEW transition set");
    }
    return Status::OK();
  };
  for (const NodePropChange& pc : delta.assigned_node_props) {
    PGT_RETURN_IF_ERROR(check_node(pc));
  }
  for (const NodePropChange& pc : delta.removed_node_props) {
    PGT_RETURN_IF_ERROR(check_node(pc));
  }
  for (const RelPropChange& pc : delta.assigned_rel_props) {
    PGT_RETURN_IF_ERROR(check_rel(pc));
  }
  for (const RelPropChange& pc : delta.removed_rel_props) {
    PGT_RETURN_IF_ERROR(check_rel(pc));
  }
  return Status::OK();
}

Status PgTriggerEngine::ProcessStatementLevel(Transaction& tx,
                                              const GraphDelta& delta,
                                              int depth,
                                              const TriggerDef* writer) {
  if (delta.Empty()) return Status::OK();
  if (depth > db_->options().max_cascade_depth) {
    std::string msg = "trigger cascade exceeded max_cascade_depth=" +
                      std::to_string(db_->options().max_cascade_depth) +
                      " (possible non-terminating rule set; see Section "
                      "6.2.3)";
    if (writer != nullptr) {
      // Cite the statically-found cycle through the looping trigger.
      const std::string hint = db_->TerminationCycleHint(writer->name);
      if (!hint.empty()) {
        msg += "; static analysis found triggering cycle " + hint;
      }
    }
    return Status::CascadeLimitExceeded(msg);
  }
  stats_.cascade_depth_max =
      std::max<uint64_t>(stats_.cascade_depth_max, depth);

  // BEFORE: condition NEW states; writes fold in silently (no cascade).
  // All activations of the statement are derived up front against one
  // consistent delta snapshot (Section 4.2: same-statement triggers
  // consider the same set of events).
  // Drained activations release their envs back to the pool (error paths
  // skip the release; the vector then frees them normally).
  std::vector<Activation> before_acts = MatchAll(ActionTime::kBefore, delta);
  for (Activation& act : before_acts) {
    const uint64_t fired_before =
        cascade_probe_ ? stats_.per_trigger[act.trigger->name].fired : 0;
    tx.PushDeltaScope();
    Status st = RunActivation(tx, act);
    GraphDelta d = tx.PopDeltaScope();
    if (!st.ok()) {
      NoteOutcome(act.trigger->name, st);
      return st;
    }
    if (cascade_probe_) {
      cascade_probe_(writer != nullptr ? writer->name : "",
                     act.trigger->name, act.trigger->time,
                     stats_.per_trigger[act.trigger->name].fired >
                         fired_before);
    }
    st = ValidateBeforeDelta(*act.trigger, act, d);
    NoteOutcome(act.trigger->name, st);
    PGT_RETURN_IF_ERROR(st);
    env_pool_.Release(std::move(act.env));
    tx.RecycleDelta(std::move(d));
  }
  ReleaseActs(std::move(before_acts));

  // AFTER: each action is its own statement scope; cascades recursively
  // (SQL3-style stack of execution contexts). The env is released before
  // the cascade so nested rounds reuse it.
  std::vector<Activation> after_acts = MatchAll(ActionTime::kAfter, delta);
  for (Activation& act : after_acts) {
    const uint64_t fired_before =
        cascade_probe_ ? stats_.per_trigger[act.trigger->name].fired : 0;
    tx.PushDeltaScope();
    Status st = RunActivation(tx, act);
    GraphDelta d = tx.PopDeltaScope();
    NoteOutcome(act.trigger->name, st);
    if (!st.ok()) return st;
    if (cascade_probe_) {
      cascade_probe_(writer != nullptr ? writer->name : "",
                     act.trigger->name, act.trigger->time,
                     stats_.per_trigger[act.trigger->name].fired >
                         fired_before);
    }
    env_pool_.Release(std::move(act.env));
    PGT_RETURN_IF_ERROR(
        ProcessStatementLevel(tx, d, depth + 1, act.trigger.get()));
    tx.RecycleDelta(std::move(d));
  }
  ReleaseActs(std::move(after_acts));

  // Probe-armed runs additionally attribute commit-time derivations: this
  // writer's delta folds into the accumulated transaction delta, so every
  // ONCOMMIT/DETACHED activation it can derive is a cascade edge even
  // though the activation itself runs later (fired stays false here; the
  // commit-point processing reports the firing).
  if (cascade_probe_ && writer != nullptr) {
    for (ActionTime t : {ActionTime::kOnCommit, ActionTime::kDetached}) {
      std::vector<Activation> derived = MatchAll(t, delta);
      for (Activation& act : derived) {
        cascade_probe_(writer->name, act.trigger->name, t, /*fired=*/false);
        env_pool_.Release(std::move(act.env));
      }
      ReleaseActs(std::move(derived));
    }
  }
  return Status::OK();
}

Status PgTriggerEngine::OnStatement(Transaction& tx, const GraphDelta& delta) {
  ++stats_.statements;
  return ProcessStatementLevel(tx, delta, 1, /*writer=*/nullptr);
}

Status PgTriggerEngine::OnCommitPoint(Transaction& tx) {
  // D4: run ONCOMMIT triggers on the accumulated transaction delta; fold
  // their side effects in and iterate to fixpoint, all before the physical
  // commit. The first round matches against the accumulated delta in
  // place — the common commit (no ONCOMMIT matches) never copies it.
  GraphDelta pending;
  const GraphDelta* current = &tx.AccumulatedDelta();
  int round = 0;
  while (!current->Empty()) {
    std::vector<Activation> acts = MatchAll(ActionTime::kOnCommit, *current);
    if (acts.empty()) break;
    if (++round > kMaxOnCommitRounds) {
      return Status::CascadeLimitExceeded(
          "ONCOMMIT processing did not reach a fixpoint within " +
          std::to_string(kMaxOnCommitRounds) + " rounds");
    }
    stats_.oncommit_rounds_max =
        std::max<uint64_t>(stats_.oncommit_rounds_max, round);
    tx.PushDeltaScope();
    for (Activation& act : acts) {
      tx.PushDeltaScope();
      Status st = RunActivation(tx, act);
      GraphDelta d = tx.PopDeltaScope();
      NoteOutcome(act.trigger->name, st);
      if (st.ok()) {
        env_pool_.Release(std::move(act.env));
        // ONCOMMIT actions are statements: BEFORE/AFTER triggers cascade
        // on their effects as usual.
        st = ProcessStatementLevel(tx, d, 1, act.trigger.get());
        if (st.ok()) tx.RecycleDelta(std::move(d));
      }
      if (!st.ok()) {
        tx.PopDeltaScope();
        return st;
      }
    }
    ReleaseActs(std::move(acts));
    pending = tx.PopDeltaScope();  // everything this round produced
    current = &pending;
  }
  return Status::OK();
}

Status PgTriggerEngine::AfterCommit(const GraphDelta& tx_delta) {
  // Off-writer pool (docs/async.md): hand the activations over with one
  // shared delta and a snapshot pinned at the epoch this commit just
  // published, then return immediately — the workers pre-evaluate WHEN
  // against exactly the state the activations saw raised. Nested detached
  // commits re-enter here and enqueue behind their parents, reproducing
  // the serial drain's queue-append FIFO. After Stop() (shutdown) the
  // legacy inline drain below takes over.
  AsyncExecutor* pool = db_->async();
  if (pool != nullptr && pool->accepting()) {
    std::vector<Activation> acts = MatchAll(ActionTime::kDetached, tx_delta);
    if (!acts.empty()) {
      auto source = std::make_shared<const GraphDelta>(tx_delta);
      std::shared_ptr<const GraphSnapshot> snap =
          db_->store().OpenSnapshot();
      pool->Enqueue(std::move(acts), std::move(source), std::move(snap));
    }
    return Status::OK();
  }

  std::vector<Activation> acts = MatchAll(ActionTime::kDetached, tx_delta);
  if (!acts.empty()) {
    // One shared copy of the activating transaction's delta per commit,
    // not one per activation.
    auto source = std::make_shared<const GraphDelta>(tx_delta);
    for (Activation& act : acts) {
      detached_queue_.emplace_back(std::move(act), source);
    }
    ReleaseActs(std::move(acts));
  }
  if (draining_detached_) return Status::OK();
  draining_detached_ = true;
  int processed = 0;
  Status result = Status::OK();
  while (!detached_queue_.empty()) {
    if (++processed > kMaxDetachedQueue) {
      result = Status::CascadeLimitExceeded(
          "DETACHED trigger chain exceeded " +
          std::to_string(kMaxDetachedQueue) + " activations");
      detached_queue_.clear();
      break;
    }
    auto [act, src] = std::move(detached_queue_.front());
    detached_queue_.pop_front();
    Status st = RunDetachedActivation(act, *src);
    env_pool_.Release(std::move(act.env));
    if (!st.ok()) {
      result = st;
      detached_queue_.clear();
      break;
    }
  }
  draining_detached_ = false;
  return result;
}

void PgTriggerEngine::ApplyPoolSkip(Activation& act) {
  // Serial-parity bookkeeping for a no-fire detached run, minus the empty
  // autonomous transaction the serial path would have committed (an empty
  // commit would bump the snapshot epoch and spuriously invalidate the
  // rest of the batch's pre-evaluated verdicts; the divergence — detached
  // no-fire runs not ticking committed_transactions — is documented in
  // docs/async.md).
  ++stats_.detached_runs;
  ++stats_.per_trigger[act.trigger->name].considered;
  env_pool_.Release(std::move(act.env));
}

Status PgTriggerEngine::ApplyPoolDeferred(Activation& act,
                                          const GraphDelta& source_delta) {
  Status st = RunDetachedActivation(act, source_delta);
  env_pool_.Release(std::move(act.env));
  return st;
}

void PgTriggerEngine::NoteOutcome(const std::string& trigger,
                                  const Status& st) {
  if (st.ok()) {
    db_->catalog().NoteSuccess(trigger);
  } else {
    db_->catalog().NoteFailure(trigger, st, db_->clock().PeekMicros());
  }
}

Status PgTriggerEngine::RunDetachedActivation(const Activation& act,
                                              const GraphDelta& source_delta) {
  // Circuit breaker (docs/robustness.md): a quarantined DETACHED trigger
  // skips its backoff window of firing opportunities, then lets exactly
  // one probe through; the probe's outcome below decides whether the
  // quarantine lifts or the backoff doubles.
  if (db_->catalog().GateDetached(act.trigger->name) == DetachedGate::kSkip) {
    return Status::OK();
  }
  // Each autonomous transaction gets a fresh execution budget: a DETACHED
  // activation must not be starved by whatever the activating statement
  // already spent (and its overrun must not abort an unrelated successor).
  Database::BudgetScope budget(db_, /*fresh=*/true);
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> tx,
                       db_->BeginAutonomousTx(source_delta));
  ++stats_.detached_runs;
  tx->PushDeltaScope();
  Status st = RunActivation(*tx, act);
  GraphDelta d = tx->PopDeltaScope();
  if (st.ok()) st = ProcessStatementLevel(*tx, d, 1, act.trigger.get());
  if (st.ok()) tx->RecycleDelta(std::move(d));
  if (!st.ok()) {
    // A DETACHED trigger failure aborts only its own autonomous
    // transaction; the activating transaction is already durable.
    db_->RollbackAndRelease(std::move(tx));
    ++stats_.per_trigger[act.trigger->name].errors;
    NoteOutcome(act.trigger->name, st);
    return Status::OK();
  }
  st = db_->CommitWithTriggers(std::move(tx));
  NoteOutcome(act.trigger->name, st);
  return st;
}

}  // namespace pgt
