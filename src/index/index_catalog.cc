#include "src/index/index_catalog.h"

#include <algorithm>

namespace pgt::index {

Result<PropertyIndex*> IndexCatalog::Register(IndexSpec spec) {
  const Key key{spec.label, spec.prop};
  if (by_key_.count(key) > 0) {
    return Status::AlreadyExists("index " + spec.name + " already exists");
  }
  auto idx = std::make_unique<PropertyIndex>(std::move(spec));
  PropertyIndex* raw = idx.get();
  by_key_.emplace(key, std::move(idx));
  by_label_[raw->spec().label].push_back(raw);
  ++epoch_;
  return raw;
}

Status IndexCatalog::Unregister(LabelId label, PropKeyId prop) {
  auto it = by_key_.find(Key{label, prop});
  if (it == by_key_.end()) {
    return Status::NotFound("no index on that label/property");
  }
  PropertyIndex* raw = it->second.get();
  auto& vec = by_label_[label];
  vec.erase(std::remove(vec.begin(), vec.end(), raw), vec.end());
  if (vec.empty()) by_label_.erase(label);
  by_key_.erase(it);
  ++epoch_;
  return Status::OK();
}

const PropertyIndex* IndexCatalog::Find(LabelId label, PropKeyId prop) const {
  auto it = by_key_.find(Key{label, prop});
  return it == by_key_.end() ? nullptr : it->second.get();
}

void IndexCatalog::ForEach(
    const std::function<void(const PropertyIndex&)>& fn) const {
  for (const auto& [key, idx] : by_key_) fn(*idx);
}

const std::vector<PropertyIndex*>* IndexCatalog::IndexesOnLabel(
    LabelId label) const {
  auto it = by_label_.find(label);
  return it == by_label_.end() ? nullptr : &it->second;
}

void IndexCatalog::OnNodeAdded(NodeId id, const std::vector<LabelId>& labels,
                               const PropMap& props) {
  for (LabelId l : labels) {
    const auto* indexes = IndexesOnLabel(l);
    if (indexes == nullptr) continue;
    for (PropertyIndex* idx : *indexes) {
      auto it = props.find(idx->spec().prop);
      if (it != props.end()) idx->Insert(it->second, id);
    }
  }
}

void IndexCatalog::OnNodeRemoved(NodeId id,
                                 const std::vector<LabelId>& labels,
                                 const PropMap& props) {
  for (LabelId l : labels) {
    const auto* indexes = IndexesOnLabel(l);
    if (indexes == nullptr) continue;
    for (PropertyIndex* idx : *indexes) {
      auto it = props.find(idx->spec().prop);
      if (it != props.end()) idx->Erase(it->second, id);
    }
  }
}

void IndexCatalog::OnLabelAdded(NodeId id, LabelId label,
                                const PropMap& props) {
  const auto* indexes = IndexesOnLabel(label);
  if (indexes == nullptr) return;
  for (PropertyIndex* idx : *indexes) {
    auto it = props.find(idx->spec().prop);
    if (it != props.end()) idx->Insert(it->second, id);
  }
}

void IndexCatalog::OnLabelRemoved(NodeId id, LabelId label,
                                  const PropMap& props) {
  const auto* indexes = IndexesOnLabel(label);
  if (indexes == nullptr) return;
  for (PropertyIndex* idx : *indexes) {
    auto it = props.find(idx->spec().prop);
    if (it != props.end()) idx->Erase(it->second, id);
  }
}

void IndexCatalog::OnPropChanged(NodeId id,
                                 const std::vector<LabelId>& labels,
                                 PropKeyId key, const Value& old_value,
                                 const Value& new_value) {
  for (LabelId l : labels) {
    const auto* indexes = IndexesOnLabel(l);
    if (indexes == nullptr) continue;
    for (PropertyIndex* idx : *indexes) {
      if (idx->spec().prop != key) continue;
      idx->Erase(old_value, id);
      idx->Insert(new_value, id);
    }
  }
}

std::optional<IndexCatalog::UniqueConflict> IndexCatalog::CheckNodeAdd(
    const std::vector<LabelId>& labels,
    const PropMap& props) const {
  for (LabelId l : labels) {
    const auto* indexes = IndexesOnLabel(l);
    if (indexes == nullptr) continue;
    for (const PropertyIndex* idx : *indexes) {
      if (!idx->unique() || !idx->spec().enforce_on_write) continue;
      auto it = props.find(idx->spec().prop);
      if (it == props.end() || it->second.is_null()) continue;
      auto holder = idx->FindConflict(it->second, std::nullopt);
      if (holder.has_value()) {
        return UniqueConflict{idx, *holder, it->second};
      }
    }
  }
  return std::nullopt;
}

std::optional<IndexCatalog::UniqueConflict> IndexCatalog::CheckLabelAdd(
    NodeId id, LabelId label,
    const PropMap& props) const {
  const auto* indexes = IndexesOnLabel(label);
  if (indexes == nullptr) return std::nullopt;
  for (const PropertyIndex* idx : *indexes) {
    if (!idx->unique() || !idx->spec().enforce_on_write) continue;
    auto it = props.find(idx->spec().prop);
    if (it == props.end() || it->second.is_null()) continue;
    auto holder = idx->FindConflict(it->second, id);
    if (holder.has_value()) {
      return UniqueConflict{idx, *holder, it->second};
    }
  }
  return std::nullopt;
}

std::optional<IndexCatalog::UniqueConflict> IndexCatalog::CheckPropSet(
    NodeId id, const std::vector<LabelId>& labels, PropKeyId key,
    const Value& value) const {
  if (value.is_null()) return std::nullopt;  // removal: cannot conflict
  for (LabelId l : labels) {
    const auto* indexes = IndexesOnLabel(l);
    if (indexes == nullptr) continue;
    for (const PropertyIndex* idx : *indexes) {
      if (idx->spec().prop != key) continue;
      if (!idx->unique() || !idx->spec().enforce_on_write) continue;
      auto holder = idx->FindConflict(value, id);
      if (holder.has_value()) {
        return UniqueConflict{idx, *holder, value};
      }
    }
  }
  return std::nullopt;
}

}  // namespace pgt::index
