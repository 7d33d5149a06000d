#include "src/emul/memgraph_emulator.h"

namespace pgt::emul {

using translate::MgEventClass;

Status MemgraphEmulator::Install(const std::string& name,
                                 MgEventClass event_class, bool before_commit,
                                 const std::string& statement) {
  return Add(name, before_commit ? Phase::kBeforeCommit : Phase::kAfterCommit,
             event_class, statement);
}

Status MemgraphEmulator::Install(const translate::MemgraphTrigger& trigger) {
  return Install(trigger.name, trigger.event_class, trigger.before_commit,
                 trigger.statement);
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

TxScopedRuntime::Bindings MemgraphEmulator::Bind(
    const GraphDelta& delta) const {
  return {{}, BuildPredefinedVars(delta, StoreView::Live(db_->store()))};
}

}  // namespace pgt::emul
