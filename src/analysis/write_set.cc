#include "src/analysis/write_set.h"

#include <sstream>

#include "src/cypher/ast.h"
#include "src/cypher/plan/program.h"
#include "src/trigger/trigger_plan.h"

namespace pgt::analysis {

namespace {

namespace plan = cypher::plan;

/// Static knowledge about the item a slot can hold at a program point.
struct VarState {
  enum class Kind { kUnknown, kNode, kRel };
  Kind kind = Kind::kUnknown;
  bool bound = false;
  /// Node: `labels` is the complete possible label set (CREATE-bound).
  /// Rel: the type set is complete whenever non-empty (types are
  /// immutable). When false, `labels` is a lower bound only.
  bool exact = false;
  std::set<std::string> labels;
};

struct InferCtx {
  const TriggerDef* def = nullptr;
  /// Transition variable names (canonical + REFERENCING aliases): pattern
  /// labels naming them are pseudo-labels selecting transition items.
  std::set<std::string> trans_names;
  /// Every label name the action can SET anywhere (`SET n:L`): folded into
  /// created-node label sets so exactness survives later label writes.
  std::set<std::string> settable_labels;
  std::vector<VarState> slots;
  WriteSet* out = nullptr;
};

VarState StateOfSlot(const InferCtx& cx, int slot) {
  if (slot < 0 || static_cast<size_t>(slot) >= cx.slots.size()) return {};
  return cx.slots[static_cast<size_t>(slot)];
}

void EmitStructural(InferCtx& cx, ItemKind item, TriggerEvent event,
                    std::set<std::string> labels, bool wildcard) {
  WriteEvent e;
  e.item = item;
  e.event = event;
  e.labels = std::move(labels);
  e.label_wildcard = wildcard;
  cx.out->events.push_back(std::move(e));
}

/// Pattern labels of a node, resolving transition pseudo-labels to the
/// trigger's target label (a lower bound on the selected item's labels).
std::set<std::string> PatternNodeLabels(const InferCtx& cx,
                                        const std::vector<plan::SymbolRef>& ls,
                                        bool* saw_transition) {
  std::set<std::string> out;
  for (const plan::SymbolRef& l : ls) {
    if (cx.trans_names.count(l.name) > 0) {
      if (saw_transition != nullptr) *saw_transition = true;
      if (cx.def->item == ItemKind::kNode) out.insert(cx.def->label);
    } else {
      out.insert(l.name);
    }
  }
  return out;
}

void BindMatchPattern(InferCtx& cx, const plan::PPattern& pat) {
  auto bind_node = [&](const plan::PNodePattern& np) {
    if (np.slot < 0) return;
    VarState& st = cx.slots[static_cast<size_t>(np.slot)];
    if (st.bound) return;
    st.bound = true;
    st.kind = VarState::Kind::kNode;
    st.exact = false;
    st.labels = PatternNodeLabels(cx, np.labels, nullptr);
  };
  for (const plan::PPatternPart& part : pat.parts) {
    bind_node(part.first);
    for (const auto& [rel, node] : part.chain) {
      if (rel.slot >= 0) {
        VarState& st = cx.slots[static_cast<size_t>(rel.slot)];
        if (!st.bound) {
          st.bound = true;
          if (rel.var_length) {
            // Var-length rel variables bind lists, not single rels.
            st.kind = VarState::Kind::kUnknown;
          } else {
            st.kind = VarState::Kind::kRel;
            for (const plan::SymbolRef& t : rel.types) st.labels.insert(t.name);
            st.exact = !st.labels.empty();
          }
        }
      }
      bind_node(node);
    }
  }
}

/// CREATE / MERGE pattern walk. CREATE endpoints with already-bound slots
/// are reused (no event); MERGE never creates through a bound slot either.
/// `may_match` (MERGE) keeps created-node bindings inexact — the pattern
/// may bind a pre-existing node carrying extra labels.
void BindWritePattern(InferCtx& cx, const plan::PPattern& pat,
                      bool may_match) {
  auto write_node = [&](const plan::PNodePattern& np) {
    if (np.slot >= 0 && cx.slots[static_cast<size_t>(np.slot)].bound) {
      return;  // bound endpoint: reused, not created
    }
    std::set<std::string> labels = PatternNodeLabels(cx, np.labels, nullptr);
    std::set<std::string> event_labels = labels;
    event_labels.insert(cx.settable_labels.begin(), cx.settable_labels.end());
    if (!event_labels.empty()) {
      // Creation raises one kCreate key per label carried at match time:
      // creation labels plus anything the action itself can SET.
      EmitStructural(cx, ItemKind::kNode, TriggerEvent::kCreate, event_labels,
                     /*wildcard=*/false);
    }
    if (np.slot >= 0) {
      VarState& st = cx.slots[static_cast<size_t>(np.slot)];
      st.bound = true;
      st.kind = VarState::Kind::kNode;
      if (may_match) {
        st.exact = false;
        st.labels = labels;
      } else {
        st.exact = true;
        st.labels = event_labels;
      }
    }
  };
  for (const plan::PPatternPart& part : pat.parts) {
    write_node(part.first);
    for (const auto& [rel, node] : part.chain) {
      std::set<std::string> types;
      for (const plan::SymbolRef& t : rel.types) types.insert(t.name);
      if (!types.empty()) {
        EmitStructural(cx, ItemKind::kRelationship, TriggerEvent::kCreate,
                       types, /*wildcard=*/false);
      }
      if (rel.slot >= 0) {
        VarState& st = cx.slots[static_cast<size_t>(rel.slot)];
        st.bound = true;
        st.kind = VarState::Kind::kRel;
        st.labels = types;
        st.exact = !types.empty();
      }
      write_node(node);
    }
  }
}

/// Property write through a target state; `value` may be null (REMOVE).
/// A non-literal SET value may evaluate to null, which the engine records
/// as a removal — such writes emit both a kSet and a kRemove event.
void EmitPropWrite(InferCtx& cx, const VarState& st, const std::string& prop,
                   bool prop_wild, const plan::PExpr* value,
                   TriggerEvent event) {
  std::optional<Value> const_value;
  bool also_remove = false;
  if (event == TriggerEvent::kSet) {
    if (value != nullptr && value->kind == cypher::Expr::Kind::kLiteral) {
      if (value->value.is_null()) {
        event = TriggerEvent::kRemove;  // SET p = null removes the property
      } else {
        const_value = value->value;
      }
    } else {
      also_remove = true;
    }
  }
  auto emit = [&](ItemKind item, TriggerEvent ev, bool with_const) {
    WriteEvent e;
    e.item = item;
    e.event = ev;
    e.prop = prop_wild ? "" : prop;
    e.prop_wildcard = prop_wild;
    if (st.kind == VarState::Kind::kUnknown) {
      e.label_wildcard = true;
    } else {
      e.labels = st.labels;
      e.label_wildcard = !st.exact;
    }
    if (with_const) e.const_value = const_value;
    cx.out->events.push_back(std::move(e));
  };
  auto emit_for_items = [&](TriggerEvent ev, bool with_const) {
    switch (st.kind) {
      case VarState::Kind::kNode:
        emit(ItemKind::kNode, ev, with_const);
        break;
      case VarState::Kind::kRel:
        emit(ItemKind::kRelationship, ev, with_const);
        break;
      case VarState::Kind::kUnknown:
        emit(ItemKind::kNode, ev, with_const);
        emit(ItemKind::kRelationship, ev, with_const);
        break;
    }
  };
  emit_for_items(event, const_value.has_value());
  if (also_remove) emit_for_items(TriggerEvent::kRemove, false);
}

void EmitLabelWrite(InferCtx& cx, const VarState& st,
                    const std::vector<plan::SymbolRef>& labels,
                    TriggerEvent event) {
  WriteEvent e;
  e.item = ItemKind::kNode;
  e.event = event;
  e.is_label_write = true;
  for (const plan::SymbolRef& l : labels) e.labels.insert(l.name);
  if (st.kind == VarState::Kind::kNode && st.exact) {
    e.carrier_labels = st.labels;
  } else {
    e.carrier_labels = st.labels;
    e.carrier_wildcard = true;
  }
  cx.out->events.push_back(std::move(e));
}

void ApplySetItems(InferCtx& cx, const std::vector<plan::PSetItem>& items) {
  for (const plan::PSetItem& it : items) {
    if (it.kind == cypher::SetItem::Kind::kLabels) {
      EmitLabelWrite(cx, StateOfSlot(cx, it.var_slot), it.labels,
                     TriggerEvent::kSet);
      continue;
    }
    if (it.kind == cypher::SetItem::Kind::kMergeMap) {
      const VarState st = StateOfSlot(cx, it.var_slot);
      const plan::PExpr* v = it.value.get();
      if (v != nullptr && v->kind == cypher::Expr::Kind::kMap) {
        for (const auto& [key, expr] : v->map_entries) {
          EmitPropWrite(cx, st, key, /*prop_wild=*/false, expr.get(),
                        TriggerEvent::kSet);
        }
      } else if (v != nullptr && v->kind == cypher::Expr::Kind::kLiteral &&
                 v->value.is_map()) {
        for (const auto& [key, mv] : v->value.map_value()) {
          plan::PExpr lit;
          lit.kind = cypher::Expr::Kind::kLiteral;
          lit.value = mv;
          EmitPropWrite(cx, st, key, /*prop_wild=*/false, &lit,
                        TriggerEvent::kSet);
        }
      } else {
        // Dynamic map: any key, any value (including null = removal).
        EmitPropWrite(cx, st, "", /*prop_wild=*/true, nullptr,
                      TriggerEvent::kSet);
      }
      continue;
    }
    VarState st;
    if (it.target != nullptr && it.target->kind == cypher::Expr::Kind::kVar) {
      st = StateOfSlot(cx, it.target->slot);
    }
    EmitPropWrite(cx, st, it.prop.name, /*prop_wild=*/false, it.value.get(),
                  TriggerEvent::kSet);
  }
}

void ApplyRemoveItems(InferCtx& cx,
                      const std::vector<plan::PRemoveItem>& items) {
  for (const plan::PRemoveItem& it : items) {
    if (it.kind == cypher::RemoveItem::Kind::kLabels) {
      EmitLabelWrite(cx, StateOfSlot(cx, it.var_slot), it.labels,
                     TriggerEvent::kRemove);
      continue;
    }
    VarState st;
    if (it.target != nullptr && it.target->kind == cypher::Expr::Kind::kVar) {
      st = StateOfSlot(cx, it.target->slot);
    }
    EmitPropWrite(cx, st, it.prop.name, /*prop_wild=*/false, nullptr,
                  TriggerEvent::kRemove);
  }
}

void WalkSteps(InferCtx& cx, const std::vector<plan::PStep>& steps) {
  for (const plan::PStep& s : steps) {
    switch (s.kind) {
      case cypher::Clause::Kind::kMatch:
        BindMatchPattern(cx, s.pattern);
        break;
      case cypher::Clause::Kind::kCreate:
        BindWritePattern(cx, s.pattern, /*may_match=*/false);
        break;
      case cypher::Clause::Kind::kMerge:
        BindWritePattern(cx, s.pattern, /*may_match=*/true);
        ApplySetItems(cx, s.on_create);
        ApplySetItems(cx, s.on_match);
        break;
      case cypher::Clause::Kind::kDelete: {
        for (const plan::PExprPtr& e : s.delete_exprs) {
          VarState st;
          if (e != nullptr && e->kind == cypher::Expr::Kind::kVar) {
            st = StateOfSlot(cx, e->slot);
          }
          switch (st.kind) {
            case VarState::Kind::kNode:
              EmitStructural(cx, ItemKind::kNode, TriggerEvent::kDelete,
                             st.labels, !st.exact);
              if (s.detach) {
                EmitStructural(cx, ItemKind::kRelationship,
                               TriggerEvent::kDelete, {}, /*wildcard=*/true);
              }
              break;
            case VarState::Kind::kRel:
              EmitStructural(cx, ItemKind::kRelationship,
                             TriggerEvent::kDelete, st.labels, !st.exact);
              break;
            case VarState::Kind::kUnknown:
              // Could be a node, a rel, or a list of either; DETACH is
              // subsumed by the rel wildcard.
              EmitStructural(cx, ItemKind::kNode, TriggerEvent::kDelete,
                             st.labels, /*wildcard=*/true);
              EmitStructural(cx, ItemKind::kRelationship,
                             TriggerEvent::kDelete, {}, /*wildcard=*/true);
              break;
          }
        }
        break;
      }
      case cypher::Clause::Kind::kSet:
        ApplySetItems(cx, s.set_items);
        break;
      case cypher::Clause::Kind::kRemove:
        ApplyRemoveItems(cx, s.remove_items);
        break;
      case cypher::Clause::Kind::kUnwind:
        if (s.unwind_slot >= 0) {
          cx.slots[static_cast<size_t>(s.unwind_slot)] = VarState{
              VarState::Kind::kUnknown, /*bound=*/true, /*exact=*/false, {}};
        }
        break;
      case cypher::Clause::Kind::kForeach:
        if (s.foreach_slot >= 0) {
          // The element may be any node/rel (collected lists, paths).
          cx.slots[static_cast<size_t>(s.foreach_slot)] = VarState{
              VarState::Kind::kUnknown, /*bound=*/true, /*exact=*/false, {}};
        }
        WalkSteps(cx, s.foreach_body);
        break;
      case cypher::Clause::Kind::kWith:
      case cypher::Clause::Kind::kReturn: {
        // Projection re-binds alias slots; variable passthroughs keep their
        // state, everything else (aggregates, expressions) is unknown.
        const std::vector<VarState> before = cx.slots;
        for (const plan::PProjItem& item : s.items) {
          if (item.slot < 0) continue;
          VarState ns;
          ns.bound = true;
          if (item.expr != nullptr &&
              item.expr->kind == cypher::Expr::Kind::kVar &&
              item.expr->slot >= 0 &&
              static_cast<size_t>(item.expr->slot) < before.size()) {
            ns = before[static_cast<size_t>(item.expr->slot)];
          }
          cx.slots[static_cast<size_t>(item.slot)] = ns;
        }
        break;
      }
      default:
        break;
    }
  }
}

void CollectSettableLabels(const std::vector<plan::PStep>& steps,
                           std::set<std::string>* out) {
  for (const plan::PStep& s : steps) {
    auto scan = [&](const std::vector<plan::PSetItem>& items) {
      for (const plan::PSetItem& it : items) {
        if (it.kind != cypher::SetItem::Kind::kLabels) continue;
        for (const plan::SymbolRef& l : it.labels) out->insert(l.name);
      }
    };
    scan(s.set_items);
    scan(s.on_create);
    scan(s.on_match);
    CollectSettableLabels(s.foreach_body, out);
  }
}

/// The write set of an action the analysis cannot see: any event on any
/// item. (Every parsed trigger compiles; this keeps a compile error sound.)
WriteSet AnyWrite() {
  WriteSet ws;
  for (ItemKind item : {ItemKind::kNode, ItemKind::kRelationship}) {
    for (TriggerEvent ev : {TriggerEvent::kCreate, TriggerEvent::kDelete,
                            TriggerEvent::kSet, TriggerEvent::kRemove}) {
      WriteEvent e;
      e.item = item;
      e.event = ev;
      e.label_wildcard = true;
      e.prop_wildcard = ev == TriggerEvent::kSet || ev == TriggerEvent::kRemove;
      ws.events.push_back(e);
      if (item == ItemKind::kNode && e.prop_wildcard) {
        e.prop_wildcard = false;
        e.is_label_write = true;
        e.carrier_wildcard = true;
        ws.events.push_back(std::move(e));
      }
    }
  }
  return ws;
}

}  // namespace

std::string WriteEvent::ToString() const {
  std::ostringstream os;
  switch (event) {
    case TriggerEvent::kCreate:
      os << "+";
      break;
    case TriggerEvent::kDelete:
      os << "-";
      break;
    case TriggerEvent::kSet:
      os << (is_label_write ? "+label " : "set ");
      break;
    case TriggerEvent::kRemove:
      os << (is_label_write ? "-label " : "unset ");
      break;
  }
  os << (item == ItemKind::kNode ? "node" : "rel") << "{";
  bool first = true;
  for (const std::string& l : labels) {
    if (!first) os << ",";
    first = false;
    os << l;
  }
  if (label_wildcard) os << (first ? "*" : ",*");
  os << "}";
  if (prop_wildcard) {
    os << ".*";
  } else if (!prop.empty()) {
    os << "." << prop;
  }
  if (const_value.has_value()) os << "=" << const_value->ToString();
  return os.str();
}

std::string WriteSet::ToString() const {
  std::ostringstream os;
  os << "[plan]";  // part of SHOW TRIGGER ANALYSIS's stable output
  for (const WriteEvent& e : events) os << " " << e.ToString();
  return os.str();
}

WriteSet InferWriteSet(const TriggerDef& def, const GraphStore& store,
                       uint64_t plan_epoch) {
  auto plans = GetOrCompileTriggerPlans(def, store, plan_epoch);
  if (!plans.ok()) return AnyWrite();
  const plan::TriggerProgram& prog = plans.value()->program;

  WriteSet ws;
  InferCtx cx;
  cx.def = &def;
  cx.out = &ws;
  cx.slots.resize(prog.slot_count);

  static const TransitionVar kAllVars[] = {
      TransitionVar::kOld,      TransitionVar::kNew,
      TransitionVar::kOldNodes, TransitionVar::kNewNodes,
      TransitionVar::kOldRels,  TransitionVar::kNewRels};
  static const char* kCanonical[] = {"OLD",      "NEW",     "OLDNODES",
                                     "NEWNODES", "OLDRELS", "NEWRELS"};
  for (size_t i = 0; i < 6; ++i) {
    cx.trans_names.insert(kCanonical[i]);
    cx.trans_names.insert(def.AliasFor(kAllVars[i]));
  }

  // Seed-slot states: single transition variables designate the monitored
  // item (target label is a lower bound for nodes, exact for rels — a rel
  // has exactly one immutable type); set variables bind lists.
  std::set<std::string> single_names = {std::string("OLD"), std::string("NEW"),
                                        def.OldVarName(), def.NewVarName()};
  for (const auto& [tv, slot] : prog.seed_slots) {
    (void)tv;
    if (slot < 0 || static_cast<size_t>(slot) >= cx.slots.size()) continue;
    VarState& st = cx.slots[static_cast<size_t>(slot)];
    st.bound = true;
    const std::string& nm = prog.slot_names[static_cast<size_t>(slot)];
    if (single_names.count(nm) > 0) {
      if (def.item == ItemKind::kNode) {
        st.kind = VarState::Kind::kNode;
        st.exact = false;
        st.labels = {def.label};
      } else {
        st.kind = VarState::Kind::kRel;
        st.exact = true;
        st.labels = {def.label};
      }
    } else {
      st.kind = VarState::Kind::kUnknown;
    }
  }

  CollectSettableLabels(prog.action_steps, &cx.settable_labels);
  // WHEN bindings flow into the action (shared slot universe,
  // docs/semantics.md D2); condition steps are read-only so walking them
  // emits nothing.
  WalkSteps(cx, prog.when_steps);
  WalkSteps(cx, prog.action_steps);
  return ws;
}

}  // namespace pgt::analysis
