#include "core/experiment.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/env.h"
#include "compute/thread_pool.h"
#include "data/synthetic_dvs_gesture.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_nmnist.h"
#include "snn/optimizer.h"
#include "snn/trainer.h"

namespace falvolt::core {

const char* dataset_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kMnist:
      return "MNIST";
    case DatasetKind::kNMnist:
      return "N-MNIST";
    case DatasetKind::kDvsGesture:
      return "DVS128-Gesture";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kMagic = 0x46564c54;  // "FVLT"

data::DatasetSplit build_data(DatasetKind kind, bool fast,
                              std::uint64_t seed) {
  switch (kind) {
    case DatasetKind::kMnist: {
      data::SyntheticMnistConfig c;
      c.seed = seed;
      if (fast) {
        c.train_size = 256;
        c.test_size = 128;
      }
      return data::make_synthetic_mnist(c);
    }
    case DatasetKind::kNMnist: {
      data::SyntheticNMnistConfig c;
      c.seed = seed + 1;
      if (fast) {
        c.train_size = 256;
        c.test_size = 128;
      }
      return data::make_synthetic_nmnist(c);
    }
    case DatasetKind::kDvsGesture: {
      data::SyntheticDvsGestureConfig c;
      c.seed = seed + 2;
      if (fast) {
        c.train_size = 220;
        c.test_size = 110;
      }
      return data::make_synthetic_dvs_gesture(c);
    }
  }
  throw std::logic_error("build_data: bad kind");
}

int baseline_epochs(DatasetKind kind, bool fast) {
  switch (kind) {
    case DatasetKind::kMnist:
      return fast ? 10 : 20;
    case DatasetKind::kNMnist:
      return fast ? 12 : 24;
    case DatasetKind::kDvsGesture:
      return fast ? 14 : 28;
  }
  return 20;
}

// Learning rate used for both the baseline training and (by default) the
// mitigation retraining of the scaled-down models.
constexpr double kBaselineLr = 2e-2;

}  // namespace

snn::Network build_network(DatasetKind kind, const data::Dataset& train,
                           std::uint64_t seed) {
  snn::ZooConfig zc;
  zc.seed = seed;
  switch (kind) {
    case DatasetKind::kMnist:
    case DatasetKind::kNMnist:
      return snn::make_digit_classifier(dataset_name(kind), train.channels(),
                                        train.height(), train.num_classes(),
                                        zc);
    case DatasetKind::kDvsGesture:
      return snn::make_gesture_classifier(dataset_name(kind),
                                          train.channels(), train.height(),
                                          train.num_classes(), zc);
  }
  throw std::logic_error("build_network: bad kind");
}

std::string resolve_cache_dir(const WorkloadOptions& opts) {
  // Three cases, each honored: the sentinel defers to the environment
  // (which may itself disable caching with an empty value), an explicit
  // empty string disables caching, and any other value is used verbatim.
  if (opts.cache_dir != kDefaultCacheDir) return opts.cache_dir;
  return common::env_or("FALVOLT_CACHE_DIR", "falvolt_cache");
}

std::string workload_id(DatasetKind kind, const WorkloadOptions& opts) {
  return std::string(dataset_name(kind)) + "/fast=" +
         (opts.fast ? "1" : "0") + "/seed=" + std::to_string(opts.seed);
}

std::string baseline_cache_file(const std::string& cache_dir,
                                DatasetKind kind, bool fast,
                                std::uint64_t seed) {
  return cache_dir + "/baseline_" + dataset_name(kind) + "_" +
         (fast ? "fast" : "full") + "_seed" + std::to_string(seed) + ".bin";
}

int default_retrain_epochs(DatasetKind kind, bool fast) {
  switch (kind) {
    case DatasetKind::kMnist:
    case DatasetKind::kNMnist:
      return fast ? 4 : 8;
    case DatasetKind::kDvsGesture:
      return fast ? 5 : 10;
  }
  return 8;
}

void save_params(snn::Network& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_params: cannot open " + path);
  const auto params = net.params();
  const std::uint32_t magic = kMagic;
  const std::uint32_t count = static_cast<std::uint32_t>(params.size());
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const snn::Param* p : params) {
    const std::uint32_t name_len =
        static_cast<std::uint32_t>(p->name.size());
    out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    out.write(p->name.data(), name_len);
    const std::uint32_t size = static_cast<std::uint32_t>(p->value.size());
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(size * sizeof(float)));
  }
}

bool load_params(snn::Network& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  // Every length field is validated against the bytes actually left in
  // the file BEFORE any allocation or payload read, so a corrupt or
  // truncated cache entry degrades to "no cache" (caller retrains and
  // rewrites it) instead of throwing or allocating a garbage-sized
  // buffer from a damaged length word.
  std::uint64_t remaining = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::uint32_t magic = 0;
  std::uint32_t count = 0;
  if (remaining < sizeof(magic) + sizeof(count)) return false;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  remaining -= sizeof(magic) + sizeof(count);
  if (!in || magic != kMagic) return false;
  const auto params = net.params();
  if (count != params.size()) {
    throw std::runtime_error("load_params: parameter count mismatch in " +
                             path);
  }
  // Stage every payload first and commit only after the whole file
  // validates — a failure halfway must not leave the network partially
  // overwritten (the caller retrains from the current initialization).
  std::vector<std::vector<float>> staged;
  staged.reserve(params.size());
  for (snn::Param* p : params) {
    std::uint32_t name_len = 0;
    if (remaining < sizeof(name_len)) return false;
    in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
    remaining -= sizeof(name_len);
    if (name_len > remaining) return false;
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    remaining -= name_len;
    std::uint32_t size = 0;
    if (remaining < sizeof(size)) return false;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    remaining -= sizeof(size);
    if (std::uint64_t{size} * sizeof(float) > remaining) return false;
    if (!in) return false;
    if (name != p->name || size != p->value.size()) {
      throw std::runtime_error("load_params: parameter mismatch at " +
                               p->name + " in " + path);
    }
    std::vector<float> payload(size);
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(size * sizeof(float)));
    remaining -= std::uint64_t{size} * sizeof(float);
    if (!in) return false;
    staged.push_back(std::move(payload));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), params[i]->value.data());
  }
  return true;
}

Workload prepare_workload(DatasetKind kind, const WorkloadOptions& opts) {
  if (opts.threads > 0) compute::set_global_threads(opts.threads);
  Workload w{kind, build_data(kind, opts.fast, opts.seed),
             snn::Network(), 0.0, 0};
  w.net = build_network(kind, w.data.train, opts.seed);
  w.baseline_epochs = baseline_epochs(kind, opts.fast);

  const std::string cache_dir = resolve_cache_dir(opts);
  std::string cache_file;
  if (!cache_dir.empty()) {
    std::filesystem::create_directories(cache_dir);
    cache_file = baseline_cache_file(cache_dir, kind, opts.fast, opts.seed);
  }

  bool loaded = false;
  if (!cache_file.empty()) {
    try {
      loaded = load_params(w.net, cache_file);
    } catch (const std::runtime_error&) {
      // A cache entry that parses but disagrees with the network (rotted
      // count/name bytes, or a stale file from an older architecture) is
      // as useless as a truncated one: retrain and rewrite it. The throw
      // stays in load_params for callers loading explicit checkpoints.
      loaded = false;
    }
  }
  if (!loaded) {
    snn::Adam opt(kBaselineLr);
    snn::TrainConfig tc;
    tc.epochs = w.baseline_epochs;
    tc.batch_size = 32;
    tc.shuffle_seed = opts.seed;
    tc.eval_each_epoch = false;
    // Step decay at 2/3 of training stabilizes the final epochs.
    const int decay_epoch = (2 * w.baseline_epochs) / 3;
    tc.on_epoch = [&opt, decay_epoch](const snn::EpochStats& s) {
      if (s.epoch + 1 == decay_epoch) opt.set_lr(kBaselineLr / 4.0);
    };
    snn::Trainer trainer(w.net, opt, w.data.train, &w.data.test, tc);
    trainer.run();
    if (!cache_file.empty()) save_params(w.net, cache_file);
  }
  w.baseline_accuracy = snn::evaluate(w.net, w.data.test);
  return w;
}

}  // namespace falvolt::core
