#include "core/experiment.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "compute/thread_pool.h"
#include "data/synthetic_dvs_gesture.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_nmnist.h"
#include "obs/metrics.h"
#include "snn/optimizer.h"
#include "snn/trainer.h"
#include "store/fingerprint.h"
#include "store/store_api.h"

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

std::string workload_id(DatasetKind kind, const WorkloadOptions& opts) {
  return std::string(dataset_name(kind)) + "/fast=" +
         (opts.fast ? "1" : "0") + "/seed=" + std::to_string(opts.seed);
}

std::string baseline_fingerprint(DatasetKind kind,
                                 const WorkloadOptions& opts) {
  store::Fingerprinter fp;  // frames kStoreFormatEpoch first
  fp.add("kind", std::string("baseline"));
  fp.add("workload", workload_id(kind, opts));
  return fp.digest();
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

namespace {

using StagedParams = std::vector<std::pair<std::string, std::vector<float>>>;

// The one parser of the baseline payload: false on any malformation
// (every length is checked against the bytes left before it is used).
bool parse_baseline(const std::string& payload, StagedParams& out) {
  common::ByteReader in{payload};
  std::uint32_t count = 0;
  if (!in.u32(count)) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::uint32_t size = 0;
    if (!in.str(name) || !in.u32(size) ||
        std::uint64_t{size} * 4 > in.remaining()) {
      return false;
    }
    std::vector<float> values(size);
    for (float& v : values) {
      std::uint32_t bits = 0;
      in.u32(bits);
      std::memcpy(&v, &bits, sizeof(v));
    }
    out.emplace_back(std::move(name), std::move(values));
  }
  return in.remaining() == 0;
}

}  // namespace

std::string encode_baseline(snn::Network& net) {
  std::string b;
  const std::vector<snn::Param*> params = net.params();
  common::put_u32(b, static_cast<std::uint32_t>(params.size()));
  for (const snn::Param* p : params) {
    common::put_str(b, p->name);
    common::put_u32(b, static_cast<std::uint32_t>(p->value.size()));
    const float* values = p->value.data();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, values + i, sizeof(bits));
      common::put_u32(b, bits);
    }
  }
  return b;
}

bool decode_baseline(const std::string& payload, snn::Network& net) {
  StagedParams staged;
  const std::vector<snn::Param*> params = net.params();
  if (!parse_baseline(payload, staged) || staged.size() != params.size()) {
    return false;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (staged[i].first != params[i]->name ||
        staged[i].second.size() != params[i]->value.size()) {
      return false;
    }
  }
  // Commit only once the whole inventory matched: a miss must leave the
  // pristine initialization for the retrain.
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].second.begin(), staged[i].second.end(),
              params[i]->value.data());
  }
  return true;
}

bool is_baseline_payload(const std::string& payload) {
  StagedParams parsed;
  return parse_baseline(payload, parsed);
}

Workload build_workload(DatasetKind kind, const WorkloadOptions& opts) {
  data::DatasetSplit data = build_data(kind, opts.fast, opts.seed);
  snn::Network net = build_network(kind, data.train, opts.seed);
  return Workload{kind, std::move(data), std::move(net)};
}

Workload prepare_workload(DatasetKind kind, const WorkloadOptions& opts,
                          store::StoreApi* rs) {
  static obs::Counter& trained = obs::counter("sweep.baseline.trained");
  if (opts.threads > 0) compute::set_global_threads(opts.threads);
  Workload w = build_workload(kind, opts);
  const std::string fp = baseline_fingerprint(kind, opts);
  const std::optional<std::string> stored = rs ? rs->get(fp) : std::nullopt;
  if (!stored || !decode_baseline(*stored, w.net)) {
    const int epochs = baseline_epochs(kind, opts.fast);
    snn::Adam opt(kBaselineLr);
    snn::TrainConfig tc;
    tc.epochs = epochs;
    tc.batch_size = 32;
    tc.shuffle_seed = opts.seed;
    tc.eval_each_epoch = false;
    // Step decay at 2/3 of training stabilizes the final epochs.
    const int decay_epoch = (2 * epochs) / 3;
    tc.on_epoch = [&opt, decay_epoch](const snn::EpochStats& s) {
      if (s.epoch + 1 == decay_epoch) opt.set_lr(kBaselineLr / 4.0);
    };
    snn::Trainer trainer(w.net, opt, w.data.train, &w.data.test, tc);
    trainer.run();
    w.trained = true;
    trained.add(1);
    if (rs) {
      rs->put(fp, encode_baseline(w.net));
      rs->put_manifest({kBaselinesManifest, {{fp, workload_id(kind, opts)}}});
    }
  }
  w.baseline_accuracy = snn::evaluate(w.net, w.data.test);
  return w;
}

}  // namespace falvolt::core
