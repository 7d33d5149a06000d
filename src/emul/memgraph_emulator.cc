#include "src/emul/memgraph_emulator.h"

#include "src/common/macros.h"
#include "src/cypher/parser.h"
#include "src/cypher/plan/plan_executor.h"

namespace pgt::emul {

using translate::MgEventClass;

Status MemgraphEmulator::Install(const std::string& name,
                                 MgEventClass event_class, bool before_commit,
                                 const std::string& statement) {
  for (const InstalledTrigger& t : triggers_) {
    if (t.name == name) {
      return Status::AlreadyExists("Memgraph trigger '" + name +
                                   "' already exists");
    }
  }
  InstalledTrigger trigger;
  trigger.name = name;
  trigger.event_class = event_class;
  trigger.before_commit = before_commit;
  trigger.source = statement;
  PGT_ASSIGN_OR_RETURN(trigger.query, cypher::Parser::ParseQuery(statement));
  triggers_.push_back(std::move(trigger));
  return Status::OK();
}

Status MemgraphEmulator::Install(const translate::MemgraphTrigger& trigger) {
  return Install(trigger.name, trigger.event_class, trigger.before_commit,
                 trigger.statement);
}

Status MemgraphEmulator::Drop(const std::string& name) {
  for (auto it = triggers_.begin(); it != triggers_.end(); ++it) {
    if (it->name == name) {
      triggers_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("Memgraph trigger '" + name + "' not installed");
}

void MemgraphEmulator::DropAll() { triggers_.clear(); }

uint64_t MemgraphEmulator::fired(const std::string& name) const {
  for (const InstalledTrigger& t : triggers_) {
    if (t.name == name) return t.fired;
  }
  return 0;
}

bool MemgraphEmulator::EventClassMatches(MgEventClass e,
                                         const GraphDelta& delta) {
  switch (e) {
    case MgEventClass::kAny:
      return !delta.Empty();
    case MgEventClass::kVertexCreate:
      return !delta.created_nodes.empty();
    case MgEventClass::kEdgeCreate:
      return !delta.created_rels.empty();
    case MgEventClass::kVertexDelete:
      return !delta.deleted_nodes.empty();
    case MgEventClass::kEdgeDelete:
      return !delta.deleted_rels.empty();
    case MgEventClass::kVertexUpdate:
      return !delta.assigned_labels.empty() ||
             !delta.removed_labels.empty() ||
             !delta.assigned_node_props.empty() ||
             !delta.removed_node_props.empty();
    case MgEventClass::kEdgeUpdate:
      return !delta.assigned_rel_props.empty() ||
             !delta.removed_rel_props.empty();
  }
  return false;
}

cypher::Row MemgraphEmulator::BuildPredefinedVars(const GraphDelta& delta,
                                                  const StoreView& store) {
  cypher::Row row;
  Value::List created_vertices, created_edges, created_objects;
  for (NodeId id : delta.created_nodes) {
    created_vertices.push_back(Value::Node(id));
    created_objects.push_back(Value::Node(id));
  }
  for (RelId id : delta.created_rels) {
    created_edges.push_back(Value::Rel(id));
    created_objects.push_back(Value::Rel(id));
  }
  Value::List deleted_vertices, deleted_edges, deleted_objects;
  for (const DeletedNodeImage& img : delta.deleted_nodes) {
    deleted_vertices.push_back(Value::Node(img.id));
    deleted_objects.push_back(Value::Node(img.id));
  }
  for (const DeletedRelImage& img : delta.deleted_rels) {
    deleted_edges.push_back(Value::Rel(img.id));
    deleted_objects.push_back(Value::Rel(img.id));
  }

  auto prop_entry = [&](const Value& item, PropKeyId key, const Value& oldv,
                        const Value& newv, bool with_new,
                        const char* item_field) {
    Value::Map m;
    m[item_field] = item;
    m["key"] = Value::String(store.PropKeyName(key));
    m["old"] = oldv;
    if (with_new) m["new"] = newv;
    return Value::MakeMap(std::move(m));
  };

  Value::List set_vprops, removed_vprops, set_eprops, removed_eprops;
  Value::List updated_vertices, updated_edges, updated_objects;
  for (const NodePropChange& pc : delta.assigned_node_props) {
    Value entry = prop_entry(Value::Node(pc.node), pc.key, pc.old_value,
                             pc.new_value, true, "vertex");
    set_vprops.push_back(entry);
    updated_vertices.push_back(entry);
    updated_objects.push_back(entry);
  }
  for (const NodePropChange& pc : delta.removed_node_props) {
    Value entry = prop_entry(Value::Node(pc.node), pc.key, pc.old_value,
                             Value(), false, "vertex");
    removed_vprops.push_back(entry);
    updated_vertices.push_back(entry);
    updated_objects.push_back(entry);
  }
  for (const RelPropChange& pc : delta.assigned_rel_props) {
    Value entry = prop_entry(Value::Rel(pc.rel), pc.key, pc.old_value,
                             pc.new_value, true, "edge");
    set_eprops.push_back(entry);
    updated_edges.push_back(entry);
    updated_objects.push_back(entry);
  }
  for (const RelPropChange& pc : delta.removed_rel_props) {
    Value entry = prop_entry(Value::Rel(pc.rel), pc.key, pc.old_value,
                             Value(), false, "edge");
    removed_eprops.push_back(entry);
    updated_edges.push_back(entry);
    updated_objects.push_back(entry);
  }

  Value::List set_vlabels, removed_vlabels;
  for (const LabelChange& lc : delta.assigned_labels) {
    Value::Map m;
    m["vertex"] = Value::Node(lc.node);
    m["label"] = Value::String(store.LabelName(lc.label));
    Value entry = Value::MakeMap(std::move(m));
    set_vlabels.push_back(entry);
    updated_vertices.push_back(entry);
    updated_objects.push_back(entry);
  }
  for (const LabelChange& lc : delta.removed_labels) {
    Value::Map m;
    m["vertex"] = Value::Node(lc.node);
    m["label"] = Value::String(store.LabelName(lc.label));
    Value entry = Value::MakeMap(std::move(m));
    removed_vlabels.push_back(entry);
    updated_vertices.push_back(entry);
    updated_objects.push_back(entry);
  }

  row.Set("createdVertices", Value::MakeList(std::move(created_vertices)));
  row.Set("createdEdges", Value::MakeList(std::move(created_edges)));
  row.Set("createdObjects", Value::MakeList(std::move(created_objects)));
  row.Set("deletedVertices", Value::MakeList(std::move(deleted_vertices)));
  row.Set("deletedEdges", Value::MakeList(std::move(deleted_edges)));
  row.Set("deletedObjects", Value::MakeList(std::move(deleted_objects)));
  row.Set("updatedVertices", Value::MakeList(std::move(updated_vertices)));
  row.Set("updatedEdges", Value::MakeList(std::move(updated_edges)));
  row.Set("updatedObjects", Value::MakeList(std::move(updated_objects)));
  row.Set("setVertexLabels", Value::MakeList(std::move(set_vlabels)));
  row.Set("removedVertexLabels", Value::MakeList(std::move(removed_vlabels)));
  row.Set("setVertexProperties", Value::MakeList(std::move(set_vprops)));
  row.Set("setEdgeProperties", Value::MakeList(std::move(set_eprops)));
  row.Set("removedVertexProperties",
          Value::MakeList(std::move(removed_vprops)));
  row.Set("removedEdgeProperties",
          Value::MakeList(std::move(removed_eprops)));
  return row;
}

Status MemgraphEmulator::RunTrigger(Transaction& tx,
                                    InstalledTrigger& trigger,
                                    const cypher::Row& vars) {
  ++trigger.fired;
  return cypher::plan::RunSeeded(db_->MakeEvalContext(&tx, nullptr, nullptr),
                                 trigger.query, vars, &db_->frame_pool());
}

Status MemgraphEmulator::OnStatement(Transaction& tx,
                                     const GraphDelta& delta) {
  (void)tx;
  (void)delta;
  return Status::OK();  // Memgraph triggers are transaction-scoped.
}

Status MemgraphEmulator::OnCommitPoint(Transaction& tx) {
  if (in_trigger_context_) return Status::OK();  // no cascading (§5.2)
  const GraphDelta delta = tx.AccumulatedDelta();
  if (delta.Empty()) return Status::OK();
  cypher::Row vars = BuildPredefinedVars(delta, StoreView::Live(db_->store()));
  for (InstalledTrigger& t : triggers_) {  // creation order
    if (!t.before_commit) continue;
    if (!EventClassMatches(t.event_class, delta)) continue;
    tx.PushDeltaScope();
    Status st = RunTrigger(tx, t, vars);
    tx.PopDeltaScope();  // effects merge but never re-activate triggers
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status MemgraphEmulator::AfterCommit(const GraphDelta& tx_delta) {
  if (in_trigger_context_) return Status::OK();  // cascade blocked (§5.2)
  if (tx_delta.Empty()) return Status::OK();
  bool any = false;
  for (InstalledTrigger& t : triggers_) {
    if (!t.before_commit && EventClassMatches(t.event_class, tx_delta)) {
      any = true;
    }
  }
  if (!any) return Status::OK();

  in_trigger_context_ = true;
  cypher::Row vars = BuildPredefinedVars(tx_delta, StoreView::Live(db_->store()));
  auto tx_or = db_->BeginTx();
  if (!tx_or.ok()) {
    in_trigger_context_ = false;
    return tx_or.status();
  }
  std::unique_ptr<Transaction> tx = std::move(tx_or).value();
  for (const DeletedNodeImage& img : tx_delta.deleted_nodes) {
    tx->InjectGhostNode(img);
  }
  for (const DeletedRelImage& img : tx_delta.deleted_rels) {
    tx->InjectGhostRel(img);
  }
  Status st = Status::OK();
  for (InstalledTrigger& t : triggers_) {
    if (t.before_commit) continue;
    if (!EventClassMatches(t.event_class, tx_delta)) continue;
    st = RunTrigger(*tx, t, vars);
    if (!st.ok()) break;
  }
  if (st.ok()) {
    st = db_->CommitWithTriggers(std::move(tx));
  } else {
    db_->RollbackAndRelease(std::move(tx));
  }
  in_trigger_context_ = false;
  return st;
}

}  // namespace pgt::emul
