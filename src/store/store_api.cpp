#include "store/store_api.h"

#include <algorithm>
#include <stdexcept>

#include "store/result_store.h"
#include "store/segment.h"

namespace falvolt::store {

LayeredStore::LayeredStore(std::vector<std::unique_ptr<StoreApi>> layers,
                           std::size_t substituter_start)
    : layers_(std::move(layers)), substituter_start_(substituter_start) {
  if (layers_.empty()) {
    throw std::invalid_argument("LayeredStore: no layers");
  }
  for (const auto& layer : layers_) {
    if (!layer) throw std::invalid_argument("LayeredStore: null layer");
  }
  layer_hit_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layer_hit_.push_back(
        &obs::counter("store.chain.layer" + std::to_string(i) + ".hit"));
  }
  chain_miss_ = &obs::counter("store.chain.miss");
  substituter_hit_ = &obs::counter("store.substituter.hit");
}

std::string LayeredStore::describe() const {
  std::string out = "layered[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) out += " -> ";
    out += layers_[i]->describe();
  }
  out += "]";
  return out;
}

bool LayeredStore::contains(const std::string& fingerprint) const {
  for (const auto& layer : layers_) {
    if (layer->contains(fingerprint)) return true;
  }
  return false;
}

std::optional<std::string> LayeredStore::get(
    const std::string& fingerprint) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (std::optional<std::string> payload = layers_[i]->get(fingerprint)) {
      layer_hit_[i]->add(1);
      // open_store layers substituter chains behind the root's; a hit
      // there is a cell this host never paid for.
      if (i >= substituter_start_) substituter_hit_->add(1);
      return payload;
    }
  }
  chain_miss_->add(1);
  return std::nullopt;
}

int LayeredStore::locate(const std::string& fingerprint) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->get(fingerprint)) return static_cast<int>(i);
  }
  return -1;
}

void LayeredStore::put(const std::string& fingerprint,
                       const std::string& payload) {
  layers_.front()->put(fingerprint, payload);
}

std::vector<std::string> LayeredStore::fingerprints() const {
  std::vector<std::string> out;
  for (const auto& layer : layers_) {
    const std::vector<std::string> fps = layer->fingerprints();
    out.insert(out.end(), fps.begin(), fps.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void LayeredStore::put_manifest(const Manifest& m) {
  layers_.front()->put_manifest(m);
}

std::vector<Manifest> LayeredStore::manifests(const std::string& bench) const {
  std::vector<Manifest> out;
  for (const auto& layer : layers_) {
    std::vector<Manifest> ms = layer->manifests(bench);
    for (Manifest& m : ms) out.push_back(std::move(m));
  }
  return out;
}

MergeStats merge_records(StoreApi& dst, const StoreApi& src) {
  MergeStats stats;
  for (const std::string& fp : src.fingerprints()) {
    if (dst.contains(fp)) {
      ++stats.present;
      continue;
    }
    const std::optional<std::string> payload = src.get(fp);
    if (!payload) {
      ++stats.corrupt;
      continue;
    }
    dst.put(fp, *payload);
    ++stats.copied;
  }
  return stats;
}

std::unique_ptr<LayeredStore> open_store(
    const std::string& dir, const std::vector<std::string>& substituters,
    bool create) {
  // Validate every substituter before the root's layer may create it: a
  // rejected call leaves no empty store behind.
  for (const std::string& sub : substituters) {
    if (!store_exists(sub)) {
      throw std::invalid_argument("open_store: substituter '" + sub +
                                  "' is not a store (no objects/ or "
                                  "segments/ directory)");
    }
  }
  std::vector<std::unique_ptr<StoreApi>> layers;
  layers.push_back(std::make_unique<LocalDirStore>(dir, create));
  layers.push_back(std::make_unique<SegmentStore>(dir));
  for (const std::string& sub : substituters) {
    layers.push_back(std::make_unique<LocalDirStore>(sub, /*create=*/false));
    layers.push_back(std::make_unique<SegmentStore>(sub));
  }
  return std::make_unique<LayeredStore>(std::move(layers));
}

}  // namespace falvolt::store
