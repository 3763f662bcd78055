// Edge cases and hostile inputs for the fabric layer: bad addresses,
// boundary-straddling operations, huge transfers, indirection through
// corrupt pointers, and accounting invariants.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "tests/test_env.h"

namespace fmds {
namespace {

TEST(FabricEdgeTest, OutOfRangeAddressesRejectedEverywhere) {
  TestEnv env(SmallFabric(2, 1 << 20));
  auto& client = env.NewClient();
  const FarAddr beyond = env.fabric().total_capacity();
  uint64_t word;
  EXPECT_FALSE(client.ReadWord(beyond).ok());
  EXPECT_FALSE(client.WriteWord(beyond, 1).ok());
  EXPECT_FALSE(client.CompareSwap(beyond, 0, 1).ok());
  EXPECT_FALSE(client.FetchAdd(beyond, 1).ok());
  EXPECT_FALSE(client.Read(beyond - 8, AsBytes(word)).ok() &&
               client.Read(beyond - 4, AsBytes(word)).ok());
  // A range that starts valid but runs off the end.
  std::vector<std::byte> buf(64);
  EXPECT_FALSE(client.Read(beyond - 32, buf).ok());
  EXPECT_FALSE(client.Write(beyond - 32, buf).ok());
}

TEST(FabricEdgeTest, ZeroLengthOpsAreNoops) {
  TestEnv env;
  auto& client = env.NewClient();
  const ClientStats before = client.stats();
  EXPECT_TRUE(client.Read(64, {}).ok());
  EXPECT_TRUE(client.Write(64, {}).ok());
  // Even empty ops are issued (and counted): the round trip happens.
  EXPECT_EQ(client.stats().Delta(before).far_ops, 2u);
}

TEST(FabricEdgeTest, IndirectionThroughGarbagePointerFailsCleanly) {
  TestEnv env(SmallFabric(1, 1 << 20));
  auto& client = env.NewClient();
  // Pointer word contains an out-of-fabric address.
  ASSERT_TRUE(client.WriteWord(64, 0xdeadbeef00ull).ok());
  uint64_t out;
  auto result = client.Load0(64, AsBytes(out));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  // The fabric word is untouched and usable afterwards.
  EXPECT_EQ(*client.ReadWord(64), 0xdeadbeef00ull);
}

TEST(FabricEdgeTest, IndirectAddMisalignedTargetRejected) {
  TestEnv env;
  auto& client = env.NewClient();
  ASSERT_TRUE(client.WriteWord(64, 257).ok());  // misaligned target
  EXPECT_FALSE(client.Add0(64, 1).ok());
}

TEST(FabricEdgeTest, WordAtomicsSurviveOverlappingRangeWrites) {
  // A byte-range write overlapping a word being CAS'd concurrently must
  // not tear the word (partial-word RMW in MemoryNode).
  TestEnv env;
  auto& a = env.NewClient();
  auto& b = env.NewClient();
  ASSERT_TRUE(a.WriteWord(64, 0).ok());
  std::atomic<bool> stop{false};
  std::thread adder([&] {
    while (!stop.load()) {
      ASSERT_TRUE(a.FetchAdd(64, 1).ok());
    }
  });
  // Concurrent unaligned writes next to (not on) the counter word.
  std::vector<std::byte> noise(13, std::byte{0xAB});
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(b.Write(72 + (i % 5), noise).ok());
  }
  stop.store(true);
  adder.join();
  // The counter word only ever saw increments: its value equals the number
  // of successful FetchAdds (monotone, no torn values observable here, but
  // the neighboring bytes must hold the last noise pattern).
  std::vector<std::byte> check(13);
  ASSERT_TRUE(b.Read(72 + 4, check).ok());
  EXPECT_EQ(check[0], std::byte{0xAB});
}

TEST(FabricEdgeTest, SixtyFourMegabyteTransfer) {
  FabricOptions options = SmallFabric(4, 32 << 20);
  options.stripe_bytes = kPageSize;
  TestEnv env(options);
  auto& client = env.NewClient();
  const uint64_t bytes = 64ull << 20;
  std::vector<uint64_t> data(bytes / 8);
  for (size_t i = 0; i < data.size(); i += 1024) {
    data[i] = i;
  }
  ASSERT_TRUE(
      client.Write(0, std::as_bytes(std::span<const uint64_t>(data))).ok());
  std::vector<uint64_t> out(bytes / 8);
  ASSERT_TRUE(
      client.Read(0, std::as_writable_bytes(std::span<uint64_t>(out))).ok());
  for (size_t i = 0; i < data.size(); i += 1024) {
    ASSERT_EQ(out[i], data[i]);
  }
  // Striped across 4 nodes: every node serviced a share.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_GT(env.fabric().node(n).stats().bytes_in.load(), bytes / 8);
  }
}

TEST(FabricEdgeTest, PerNodeStatsAccumulate) {
  TestEnv env(SmallFabric(2, 1 << 20));
  auto& client = env.NewClient();
  const uint64_t node1_base = 1 << 20;
  ASSERT_TRUE(client.WriteWord(64, 1).ok());           // node 0
  ASSERT_TRUE(client.WriteWord(node1_base + 64, 1).ok());  // node 1
  ASSERT_TRUE(client.ReadWord(node1_base + 64).ok());
  EXPECT_EQ(env.fabric().node(0).stats().ops_serviced.load(), 1u);
  EXPECT_EQ(env.fabric().node(1).stats().ops_serviced.load(), 2u);
}

TEST(FabricEdgeTest, ClientStatsDeltaAndToString) {
  TestEnv env;
  auto& client = env.NewClient();
  const ClientStats before = client.stats();
  ASSERT_TRUE(client.WriteWord(64, 1).ok());
  const ClientStats delta = client.stats().Delta(before);
  EXPECT_EQ(delta.far_ops, 1u);
  EXPECT_NE(delta.ToString().find("far_ops=1"), std::string::npos);
  ClientStats sum = before;
  sum.Add(delta);
  EXPECT_EQ(sum.far_ops, client.stats().far_ops);
}

TEST(FabricEdgeTest, ClientStatsDeltaAndAddMoveOnlyTheSetField) {
  // Walks the one field list: setting a single counter must move exactly
  // that counter through Delta and Add, and print under its own name.
  std::vector<uint64_t ClientStats::*> fields;
  std::vector<std::string> names;
#define FMDS_TEST_FIELD(name)             \
  fields.push_back(&ClientStats::name);   \
  names.push_back(#name);
  FMDS_CLIENT_STATS(FMDS_TEST_FIELD)
#undef FMDS_TEST_FIELD
  ASSERT_EQ(fields.size() * sizeof(uint64_t), sizeof(ClientStats));
  for (size_t i = 0; i < fields.size(); ++i) {
    ClientStats set;
    set.*fields[i] = 7;
    const ClientStats delta = set.Delta(ClientStats{});
    ClientStats sum;
    sum.Add(set);
    for (size_t j = 0; j < fields.size(); ++j) {
      const uint64_t want = i == j ? 7 : 0;
      EXPECT_EQ(delta.*fields[j], want) << names[i] << " -> " << names[j];
      EXPECT_EQ(sum.*fields[j], want) << names[i] << " -> " << names[j];
    }
    EXPECT_NE(set.ToString().find(names[i] + "=7"), std::string::npos)
        << set.ToString();
  }
  // The fleet table has a column per field, headed by the field's name.
  std::ostringstream dump;
  Fabric::DumpClientStats(dump, {});
  const std::string table = dump.str();
  const size_t header_start = table.find('|');
  const std::string header =
      table.substr(header_start, table.find('\n', header_start) - header_start);
  for (const std::string& name : names) {
    EXPECT_NE(header.find(" " + name + " |"), std::string::npos)
        << name << " missing from " << header;
  }
}

TEST(FabricEdgeTest, FaaiNegativeDeltaMovesPointerBackwards) {
  TestEnv env;
  auto& client = env.NewClient();
  ASSERT_TRUE(client.WriteWord(64, 512).ok());
  ASSERT_TRUE(client.WriteWord(504, 42).ok());
  uint64_t out = 0;
  auto old = client.Faai(64, -8, AsBytes(out));
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(*old, 512u);
  EXPECT_EQ(*client.ReadWord(64), 504u);
  // Next faai reads the slot the pointer backed into.
  ASSERT_TRUE(client.Faai(64, -8, AsBytes(out)).ok());
  EXPECT_EQ(out, 42u);
}

TEST(FabricEdgeTest, ManySmallNodes) {
  FabricOptions options;
  options.num_nodes = 64;
  options.node_capacity = 64 * kPageSize;
  options.stripe_bytes = kPageSize;
  TestEnv env(options);
  auto& client = env.NewClient();
  // Touch one word on every node.
  for (NodeId n = 0; n < 64; ++n) {
    const FarAddr addr = static_cast<FarAddr>(n) * kPageSize + 8;
    ASSERT_TRUE(client.WriteWord(addr, n + 1).ok());
  }
  for (NodeId n = 0; n < 64; ++n) {
    const FarAddr addr = static_cast<FarAddr>(n) * kPageSize + 8;
    EXPECT_EQ(*client.ReadWord(addr), n + 1);
    EXPECT_GE(env.fabric().node(n).stats().ops_serviced.load(), 2u);
  }
}

}  // namespace
}  // namespace fmds
