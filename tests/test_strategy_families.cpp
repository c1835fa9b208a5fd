// Every registry name binds one parameter set of the two strategy families
// (src/gnn/strategies/families.cpp). These tests pin the bindings: a knob a
// name fixes (c for the 1D and 2D names, the chunk count for the bulk
// names) must not move its trajectory or its traffic by a single bit, a
// 1D/2D name must equal its family at c = 1 / d = 1, and the 2D names keep
// their own geometry message.
#include <gtest/gtest.h>

#include <string>

#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"

namespace sagnn {
namespace {

TrainResult run(const Dataset& ds, const std::string& strategy, int c,
                int chunks) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, 3);
  cfg.learning_rate = 0.3f;
  auto trainer = TrainerBuilder(ds)
                     .strategy(strategy)
                     .ranks(4, c)
                     .partitioner("gvb")
                     .pipeline_chunks(chunks)
                     .gcn(cfg)
                     .build();
  trainer->train();
  return trainer->result();
}

/// Bitwise: the loss trajectory and every phase's per-epoch bytes and
/// messages, the index exchange and the stage count.
void expect_same_run(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].loss, b.epochs[e].loss) << "epoch " << e;
    EXPECT_EQ(a.epochs[e].train_accuracy, b.epochs[e].train_accuracy) << "epoch " << e;
  }
  ASSERT_EQ(a.phase_volumes.size(), b.phase_volumes.size());
  for (const auto& [phase, vol] : a.phase_volumes) {
    ASSERT_TRUE(b.phase_volumes.count(phase)) << phase;
    EXPECT_EQ(vol.megabytes_per_epoch, b.phase_volumes.at(phase).megabytes_per_epoch)
        << phase;
    EXPECT_EQ(vol.messages_per_epoch, b.phase_volumes.at(phase).messages_per_epoch)
        << phase;
  }
  EXPECT_EQ(a.setup_megabytes, b.setup_megabytes);
  EXPECT_EQ(a.pipeline_stages, b.pipeline_stages);
}

TEST(StrategyFamilies, OneAndTwoDNamesIgnoreTheCKnob) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (const char* name : {"1d-oblivious", "1d-sparse", "1d-overlap",
                           "2d-oblivious", "2d-sparse"}) {
    SCOPED_TRACE(name);
    expect_same_run(run(ds, name, 1, 4), run(ds, name, 2, 4));
  }
}

TEST(StrategyFamilies, BulkNamesIgnoreTheChunkKnob) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (const auto& [name, c] :
       {std::pair{"1d-oblivious", 1}, std::pair{"1d-sparse", 1},
        std::pair{"1.5d-oblivious", 2}, std::pair{"1.5d-sparse", 2},
        std::pair{"2d-oblivious", 1}, std::pair{"2d-sparse", 1},
        std::pair{"3d", 4}}) {
    SCOPED_TRACE(name);
    expect_same_run(run(ds, name, c, 1), run(ds, name, c, 4));
  }
}

TEST(StrategyFamilies, OneAndTwoDAreTheirFamilyAtWidthOne) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (const auto& [fixed, family] :
       {std::pair{"1d-oblivious", "1.5d-oblivious"},
        std::pair{"1d-sparse", "1.5d-sparse"}, std::pair{"2d-sparse", "3d"}}) {
    SCOPED_TRACE(fixed);
    expect_same_run(run(ds, fixed, 1, 4), run(ds, family, 1, 4));
  }
}

TEST(StrategyFamilies, TwoDNamesKeepTheirGeometryMessage) {
  // Plan::skipped shows this message to users.
  for (const char* name : {"2d-oblivious", "2d-sparse"}) {
    const auto strategy = strategy_registry().create(name);
    try {
      (void)strategy->n_blocks(8, 1);
      ADD_FAILURE() << name << " accepted p = 8";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("2D requires a perfect-square"), std::string::npos) << what;
    }
    EXPECT_EQ(strategy->n_blocks(9, 4), 3) << name;  // c is ignored
  }
  EXPECT_THROW((void)strategy_registry().create("3d")->n_blocks(9, 4), Error);
}

}  // namespace
}  // namespace sagnn
