#include <gtest/gtest.h>

#include "src/sim/latency_model.h"
#include "src/sim/sim_clock.h"

namespace fmds {
namespace {

TEST(SimClockTest, AdvancesAndResets) {
  SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.Advance(100);
  clock.Advance(50);
  EXPECT_EQ(clock.now_ns(), 150u);
  clock.Reset();
  EXPECT_EQ(clock.now_ns(), 0u);
}

TEST(LatencyModelTest, RoundTripScalesWithBytes) {
  LatencyModel model;
  EXPECT_GT(model.FarRoundTripNs(4096), model.FarRoundTripNs(8));
  EXPECT_EQ(model.FarRoundTripNs(0), model.far_base_ns);
  EXPECT_GT(model.RpcNs(64, 64), model.FarRoundTripNs(128));
}

}  // namespace
}  // namespace fmds
