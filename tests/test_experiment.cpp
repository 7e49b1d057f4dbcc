#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "snn/model_zoo.h"
#include "store/result_store.h"
#include "store/store_api.h"

namespace falvolt::core {
namespace {

TEST(Experiment, DatasetNames) {
  EXPECT_STREQ(dataset_name(DatasetKind::kMnist), "MNIST");
  EXPECT_STREQ(dataset_name(DatasetKind::kNMnist), "N-MNIST");
  EXPECT_STREQ(dataset_name(DatasetKind::kDvsGesture), "DVS128-Gesture");
}

TEST(Experiment, DefaultRetrainEpochsOrdering) {
  // DVS needs more epochs than the digit tasks (as in the paper), and
  // fast mode shrinks everything.
  EXPECT_GT(default_retrain_epochs(DatasetKind::kDvsGesture, false),
            default_retrain_epochs(DatasetKind::kMnist, false) - 1);
  EXPECT_LT(default_retrain_epochs(DatasetKind::kMnist, true),
            default_retrain_epochs(DatasetKind::kMnist, false));
}

TEST(Experiment, WorkloadGeometryPerDataset) {
  WorkloadOptions opts;
  opts.fast = true;
  const Workload mnist = build_workload(DatasetKind::kMnist, opts);
  EXPECT_EQ(mnist.data.train.num_classes(), 10);
  Workload nm = build_workload(DatasetKind::kNMnist, opts);
  EXPECT_EQ(nm.data.train.channels(), 2);
  EXPECT_EQ(nm.net.hidden_spiking_layers().size(), 4u);
  Workload dvs = build_workload(DatasetKind::kDvsGesture, opts);
  EXPECT_EQ(dvs.data.train.num_classes(), 11);
  EXPECT_EQ(dvs.net.hidden_spiking_layers().size(), 7u);
}

TEST(Experiment, BaselineFingerprintIsTheWorkloadIdentity) {
  WorkloadOptions opts;
  opts.fast = true;
  const std::string fp = baseline_fingerprint(DatasetKind::kMnist, opts);
  WorkloadOptions exec = opts;  // execution knobs leave the address alone
  exec.threads = 3;
  exec.sweep_parallel = 4;
  EXPECT_EQ(baseline_fingerprint(DatasetKind::kMnist, exec), fp);
  WorkloadOptions seeded = opts;
  seeded.seed += 1;
  EXPECT_NE(baseline_fingerprint(DatasetKind::kMnist, seeded), fp);
  EXPECT_NE(baseline_fingerprint(DatasetKind::kMnist, WorkloadOptions{}), fp);
  EXPECT_NE(baseline_fingerprint(DatasetKind::kNMnist, opts), fp);
}

// The small digit classifier the codec cases encode; `seed` picks its
// initialization, `channels` its parameter sizes.
snn::Network small_net(std::uint64_t seed, int channels = 4) {
  snn::ZooConfig zc;
  zc.channels = channels;
  zc.fc_hidden = 16;
  zc.seed = seed;
  return snn::make_digit_classifier("d", 1, 16, 10, zc);
}

TEST(Experiment, BaselineCodecRoundTripIsBitExact) {
  snn::Network a = small_net(1);
  const std::string payload = encode_baseline(a);
  EXPECT_TRUE(is_baseline_payload(payload));
  snn::Network b = small_net(999);  // a different initialization
  ASSERT_NE(encode_baseline(b), payload);
  ASSERT_TRUE(decode_baseline(payload, b));
  EXPECT_EQ(encode_baseline(b), payload);
}

// `payload` decodes as a miss into a fresh small_net(999), which keeps
// its own initialization.
void expect_miss(const std::string& payload, const std::string& what) {
  snn::Network net = small_net(999);
  const std::string before = encode_baseline(net);
  EXPECT_FALSE(decode_baseline(payload, net)) << what;
  EXPECT_EQ(encode_baseline(net), before) << what << " touched the network";
}

TEST(Experiment, TruncatedBaselineDecodesAsMiss) {
  snn::Network a = small_net(1);
  const std::string payload = encode_baseline(a);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{9}, payload.size() / 2,
        payload.size() - 1}) {
    EXPECT_FALSE(is_baseline_payload(payload.substr(0, keep)));
    expect_miss(payload.substr(0, keep), "kept " + std::to_string(keep));
  }
  EXPECT_FALSE(is_baseline_payload(payload + '\0'));
  expect_miss(payload + '\0', "a trailing byte");
}

TEST(Experiment, LyingLengthDecodesAsMiss) {
  snn::Network a = small_net(1);
  const std::string payload = encode_baseline(a);
  // Layout: u32 count, then per parameter u32 name length, the name,
  // u32 size and the floats.
  std::string name_len = payload;
  name_len[7] = '\x7f';  // the first name claims ~2 GB
  EXPECT_FALSE(is_baseline_payload(name_len));
  expect_miss(name_len, "a lying name length");
  std::string count = payload;
  count[0] = static_cast<char>(count[0] + 1);  // one parameter more
  expect_miss(count, "a lying parameter count");
}

TEST(Experiment, RenamedParameterDecodesAsMiss) {
  snn::Network a = small_net(1);
  std::string payload = encode_baseline(a);
  payload[8] ^= 0x20;  // first character of the first parameter's name
  EXPECT_TRUE(is_baseline_payload(payload));  // well-formed, wrong network
  expect_miss(payload, "a renamed parameter");
}

TEST(Experiment, ResizedParameterDecodesAsMiss) {
  snn::Network wide = small_net(1, /*channels=*/8);
  const std::string payload = encode_baseline(wide);
  EXPECT_TRUE(is_baseline_payload(payload));
  expect_miss(payload, "resized parameters");
}

TEST(Experiment, PrepareWorkloadRestoresTheStoredBaseline) {
  const std::string dir = ::testing::TempDir() + "falvolt_baseline_store";
  std::filesystem::remove_all(dir);
  WorkloadOptions opts;
  opts.fast = true;
  // Any well-formed record of the right inventory is restored as is:
  // here the untrained network, which no training would reproduce.
  Workload untrained = build_workload(DatasetKind::kMnist, opts);
  std::string stored = encode_baseline(untrained.net);
  std::unique_ptr<store::StoreApi> rs = store::open_store(dir);
  rs->put(baseline_fingerprint(DatasetKind::kMnist, opts), stored);

  Workload w = prepare_workload(DatasetKind::kMnist, opts, rs.get());
  EXPECT_FALSE(w.trained);
  EXPECT_EQ(encode_baseline(w.net), stored);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace falvolt::core
