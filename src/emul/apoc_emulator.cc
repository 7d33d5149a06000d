#include "src/emul/apoc_emulator.h"

#include "src/common/macros.h"
#include "src/cypher/parser.h"
#include "src/cypher/plan/plan_executor.h"

namespace pgt::emul {

namespace {

/// Converts a parameter-map Value (from apoc.do.when's fourth argument)
/// into both query parameters and row bindings for the nested statement.
void SeedFromMap(const Value& map, Params* params, cypher::Row* row) {
  if (!map.is_map()) return;
  for (const auto& [k, v] : map.map_value()) {
    (*params)[k] = v;
    row->Set(k, v);
  }
}

}  // namespace

ApocEmulator::ApocEmulator(Database* db)
    : TxScopedRuntime(db, "APOC", Order::kAlphabetical) {
  // apoc.do.when(condition, thenQuery, elseQuery, params) YIELD value.
  db->procedures().Register(
      "apoc.do.when", {"value"},
      [db](cypher::EvalContext& ctx, const std::vector<Value>& args,
           const cypher::Row& row) -> Result<std::vector<cypher::Row>> {
        (void)row;
        if (args.size() < 3) {
          return Status::InvalidArgument(
              "apoc.do.when expects (condition, ifQuery, elseQuery[, "
              "params])");
        }
        const bool cond = args[0].is_bool() && args[0].bool_value();
        const Value& query_text =
            cond ? args[1] : args[2];
        cypher::Row out_row;
        out_row.Set("value", Value::Bool(cond));
        std::vector<cypher::Row> out = {out_row};
        if (!query_text.is_string() || query_text.string_value().empty()) {
          return out;
        }
        Params params;
        cypher::Row seed;
        if (args.size() >= 4) SeedFromMap(args[3], &params, &seed);
        PGT_ASSIGN_OR_RETURN(
            cypher::Query q,
            cypher::Parser::ParseQuery(query_text.string_value()));
        cypher::EvalContext sub = ctx;
        sub.params = &params;
        PGT_RETURN_IF_ERROR(
            cypher::plan::RunSeeded(sub, q, seed, &db->frame_pool()));
        return out;
      });
}

Status ApocEmulator::Install(const std::string& name,
                             const std::string& statement,
                             const std::string& phase) {
  Phase p;
  if (phase == "before") {
    p = Phase::kBeforeCommit;
  } else if (phase == "after" || phase == "afterAsync") {
    p = Phase::kAfterCommit;
  } else if (phase == "rollback") {
    p = Phase::kNever;
  } else {
    return Status::InvalidArgument("unknown APOC phase '" + phase + "'");
  }
  return Add(name, p, translate::MgEventClass::kAny, statement);
}

Status ApocEmulator::Install(const translate::ApocTrigger& trigger) {
  return Install(trigger.name, trigger.statement, trigger.phase);
}

Status ApocEmulator::Stop(const std::string& name) {
  return SetPaused(name, true);
}

Status ApocEmulator::Start(const std::string& name) {
  return SetPaused(name, false);
}

Status ApocEmulator::SetPaused(const std::string& name, bool paused) {
  Trigger* t = Find(name);
  if (t == nullptr) return NotInstalled(name);
  t->paused = paused;
  return Status::OK();
}

void ApocEmulator::QueueInterleaved(const std::string& statement) {
  interleaved_.push_back(statement);
}

Params ApocEmulator::BuildUtilityParams(const GraphDelta& delta,
                                        const StoreView& store) {
  Params params;
  {
    Value::List nodes;
    for (NodeId id : delta.created_nodes) nodes.push_back(Value::Node(id));
    params["createdNodes"] = Value::MakeList(std::move(nodes));
  }
  {
    Value::List rels;
    for (RelId id : delta.created_rels) rels.push_back(Value::Rel(id));
    params["createdRelationships"] = Value::MakeList(std::move(rels));
  }
  {
    Value::List nodes;
    for (const DeletedNodeImage& img : delta.deleted_nodes) {
      nodes.push_back(Value::Node(img.id));
    }
    params["deletedNodes"] = Value::MakeList(std::move(nodes));
  }
  {
    Value::List rels;
    for (const DeletedRelImage& img : delta.deleted_rels) {
      rels.push_back(Value::Rel(img.id));
    }
    params["deletedRelationships"] = Value::MakeList(std::move(rels));
  }
  // assignedLabels / removedLabels: map label name -> list of nodes.
  auto label_map = [&](const std::vector<LabelChange>& changes) {
    std::map<std::string, Value::List> by_label;
    for (const LabelChange& lc : changes) {
      by_label[store.LabelName(lc.label)].push_back(Value::Node(lc.node));
    }
    Value::Map out;
    for (auto& [label, nodes] : by_label) {
      out[label] = Value::MakeList(std::move(nodes));
    }
    return Value::MakeMap(std::move(out));
  };
  params["assignedLabels"] = label_map(delta.assigned_labels);
  params["removedLabels"] = label_map(delta.removed_labels);
  // assigned/removed node properties: map key -> list of quadruples/triples
  // {node, key, old, new} (Table 2).
  auto node_prop_map = [&](const std::vector<NodePropChange>& changes,
                           bool with_new) {
    std::map<std::string, Value::List> by_key;
    for (const NodePropChange& pc : changes) {
      Value::Map entry;
      entry["node"] = Value::Node(pc.node);
      entry["key"] = Value::String(store.PropKeyName(pc.key));
      entry["old"] = pc.old_value;
      if (with_new) entry["new"] = pc.new_value;
      by_key[store.PropKeyName(pc.key)].push_back(
          Value::MakeMap(std::move(entry)));
    }
    Value::Map out;
    for (auto& [key, list] : by_key) {
      out[key] = Value::MakeList(std::move(list));
    }
    return Value::MakeMap(std::move(out));
  };
  params["assignedNodeProperties"] =
      node_prop_map(delta.assigned_node_props, /*with_new=*/true);
  params["removedNodeProperties"] =
      node_prop_map(delta.removed_node_props, /*with_new=*/false);
  auto rel_prop_map = [&](const std::vector<RelPropChange>& changes,
                          bool with_new) {
    std::map<std::string, Value::List> by_key;
    for (const RelPropChange& pc : changes) {
      Value::Map entry;
      entry["rel"] = Value::Rel(pc.rel);
      entry["key"] = Value::String(store.PropKeyName(pc.key));
      entry["old"] = pc.old_value;
      if (with_new) entry["new"] = pc.new_value;
      by_key[store.PropKeyName(pc.key)].push_back(
          Value::MakeMap(std::move(entry)));
    }
    Value::Map out;
    for (auto& [key, list] : by_key) {
      out[key] = Value::MakeList(std::move(list));
    }
    return Value::MakeMap(std::move(out));
  };
  params["assignedRelProperties"] =
      rel_prop_map(delta.assigned_rel_props, /*with_new=*/true);
  params["removedRelProperties"] =
      rel_prop_map(delta.removed_rel_props, /*with_new=*/false);
  return params;
}

TxScopedRuntime::Bindings ApocEmulator::Bind(const GraphDelta& delta) const {
  return {BuildUtilityParams(delta, StoreView::Live(db_->store())), {}};
}

Status ApocEmulator::BeforeAutonomousTx() {
  // afterAsync race: other transactions may commit between the activating
  // commit and the trigger execution (deterministically injected here).
  std::vector<std::string> interleaved = std::move(interleaved_);
  interleaved_.clear();
  for (const std::string& stmt : interleaved) {
    // Nested entry: this runs inside CommitWithTriggers, on the writer
    // thread, under the caller's writer-interlock hold.
    PGT_RETURN_IF_ERROR(db_->ExecuteNested(stmt).status());
  }
  return Status::OK();
}

}  // namespace pgt::emul
