// Unit tests for the register update unit: allocation order, producer
// lookup (the dependency buffer's rename table, checked against the
// backward window scan it replaced), id-based find, in-order retirement,
// and squash semantics (including id rollback).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/ruu.hpp"

namespace steersim {
namespace {

RuuEntry& add_writer(RegisterUpdateUnit& ruu, Opcode op, std::uint8_t rd) {
  return ruu.allocate(Instruction{op, rd, 1, 2, 0});
}

/// An instruction that writes no register.
const Instruction kNop{};

TEST(Ruu, AllocateAssignsSequentialIds) {
  RegisterUpdateUnit ruu(4);
  EXPECT_EQ(ruu.allocate(kNop).id, 0u);
  EXPECT_EQ(ruu.allocate(kNop).id, 1u);
  EXPECT_EQ(ruu.size(), 2u);
  EXPECT_FALSE(ruu.full());
}

TEST(Ruu, FindByIdAndRetire) {
  RegisterUpdateUnit ruu(4);
  const auto id0 = ruu.allocate(kNop).id;
  const auto id1 = ruu.allocate(kNop).id;
  EXPECT_NE(ruu.find(id0), nullptr);
  EXPECT_EQ(ruu.find(999), nullptr);
  const RuuEntry head = ruu.retire_head();
  EXPECT_EQ(head.id, id0);
  EXPECT_EQ(ruu.find(id0), nullptr);  // retired
  EXPECT_NE(ruu.find(id1), nullptr);
  EXPECT_EQ(ruu.at(0).id, id1);
}

TEST(Ruu, RingWrapsAcrossManyRetirements) {
  RegisterUpdateUnit ruu(3);
  for (int round = 0; round < 10; ++round) {
    const auto id = ruu.allocate(kNop).id;
    EXPECT_EQ(ruu.find(id)->id, id);
    ruu.retire_head();
  }
  EXPECT_TRUE(ruu.empty());
}

TEST(Ruu, LatestProducerFindsYoungestWriter) {
  RegisterUpdateUnit ruu(8);
  const auto first = add_writer(ruu, Opcode::kAdd, 5).id;
  add_writer(ruu, Opcode::kAdd, 6);
  const auto second = add_writer(ruu, Opcode::kMul, 5).id;
  EXPECT_NE(first, second);
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 5), second);
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 7), kNoProducer);
}

TEST(Ruu, R0HasNoProducer) {
  RegisterUpdateUnit ruu(8);
  add_writer(ruu, Opcode::kAdd, 0);
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 0), kNoProducer);
}

TEST(Ruu, IntAndFpNamespacesSeparate) {
  RegisterUpdateUnit ruu(8);
  const auto int_writer = add_writer(ruu, Opcode::kAdd, 3).id;
  const RuuEntry& fp = ruu.allocate(make_rr(Opcode::kFadd, 3, 1, 2));
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 3), int_writer);
  EXPECT_EQ(ruu.latest_producer(RegClass::kFp, 3), fp.id);
}

TEST(Ruu, FpCompareProducesIntRegister) {
  RegisterUpdateUnit ruu(8);
  const RuuEntry& cmp =
      ruu.allocate(make_rr(Opcode::kFlt, 4, 1, 2));  // writes int r4
  EXPECT_EQ(ruu.latest_producer(RegClass::kInt, 4), cmp.id);
  EXPECT_EQ(ruu.latest_producer(RegClass::kFp, 4), kNoProducer);
}

TEST(Ruu, SquashYoungerRollsBackIds) {
  RegisterUpdateUnit ruu(8);
  const auto keep = add_writer(ruu, Opcode::kAdd, 1).id;
  add_writer(ruu, Opcode::kAdd, 2);
  add_writer(ruu, Opcode::kAdd, 3);
  std::vector<std::uint64_t> squashed;
  const unsigned n = ruu.squash_younger_than(
      keep, [&squashed](const RuuEntry& e) { squashed.push_back(e.id); });
  EXPECT_EQ(n, 2u);
  ASSERT_EQ(squashed.size(), 2u);
  EXPECT_GT(squashed[0], squashed[1]) << "youngest squashed first";
  EXPECT_EQ(ruu.size(), 1u);
  // Ids restart contiguously after the survivor.
  const auto next = ruu.allocate(kNop).id;
  EXPECT_EQ(next, keep + 1);
  EXPECT_EQ(ruu.find(next)->id, next);
}

TEST(Ruu, SquashEverythingYoungerThanNothingClearsAll) {
  RegisterUpdateUnit ruu(4);
  add_writer(ruu, Opcode::kAdd, 1);
  add_writer(ruu, Opcode::kAdd, 2);
  unsigned count = 0;
  // id threshold below every entry squashes the whole window... except the
  // oldest entry id 0 (id <= threshold keeps it). Use the head's id.
  ruu.squash_younger_than(ruu.at(0).id, [&count](const RuuEntry&) {
    ++count;
  });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(ruu.size(), 1u);
}

TEST(Ruu, WritesRegHelper) {
  RegisterUpdateUnit ruu(8);
  EXPECT_TRUE(ruu.allocate(make_rr(Opcode::kAdd, 5, 1, 2)).writes_reg());
  EXPECT_FALSE(ruu.allocate(make_rr(Opcode::kAdd, 0, 1, 2)).writes_reg());
  EXPECT_FALSE(ruu.allocate(make_store(Opcode::kSw, 1, 2, 0)).writes_reg());
  EXPECT_TRUE(ruu.allocate(make_rr(Opcode::kFadd, 0, 1, 2)).writes_reg())
      << "f0 is a real register";
}

/// The reference dependency lookup: scan the window youngest-first for
/// the latest in-flight writer of (`cls`, `reg`).
std::uint64_t scan_latest_producer(const RegisterUpdateUnit& ruu,
                                   RegClass cls, std::uint8_t reg) {
  if (cls == RegClass::kNone || (cls == RegClass::kInt && reg == 0)) {
    return kNoProducer;
  }
  for (unsigned pos = ruu.size(); pos > 0; --pos) {
    const RuuEntry& entry = ruu.at(pos - 1);
    if (op_info(entry.inst.op).rd_class == cls && entry.inst.rd == reg) {
      return entry.id;
    }
  }
  return kNoProducer;
}

TEST(Ruu, RenameTableMatchesBackwardScanOracle) {
  // Int writers, FP writers, an FP compare writing an int register, and
  // instructions that write nothing; destinations crowd into a few
  // registers (r0/f0 included) so writers shadow one another.
  const Opcode kOps[] = {Opcode::kAdd, Opcode::kLw,  Opcode::kJal,
                         Opcode::kFadd, Opcode::kFlw, Opcode::kFlt,
                         Opcode::kSw,  Opcode::kBeq, Opcode::kNop};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Xoshiro256 rng(seed);
    RegisterUpdateUnit ruu(1 + static_cast<unsigned>(rng.next_below(12)));
    for (unsigned step = 0; step < 400; ++step) {
      const std::uint64_t action = rng.next_below(20);
      if (action < 10 && !ruu.full()) {
        const Opcode op = kOps[rng.next_below(std::size(kOps))];
        const auto rd = static_cast<std::uint8_t>(
            rng.next_bool(0.9) ? rng.next_below(4) : rng.next_below(32));
        ruu.allocate(Instruction{op, rd, 1, 2, 0});
      } else if (action < 14 && !ruu.empty()) {
        ruu.retire_head();
      } else if (action < 19 && !ruu.empty()) {
        const auto pos =
            static_cast<unsigned>(rng.next_below(ruu.size()));
        ruu.squash_younger_than(ruu.at(pos).id, [](const RuuEntry&) {});
      } else if (action == 19) {
        ruu.squash_all([](const RuuEntry&) {});
      }
      for (const RegClass cls :
           {RegClass::kNone, RegClass::kInt, RegClass::kFp}) {
        for (unsigned reg = 0; reg < kNumIntRegs; ++reg) {
          const auto r = static_cast<std::uint8_t>(reg);
          ASSERT_EQ(ruu.latest_producer(cls, r),
                    scan_latest_producer(ruu, cls, r))
              << "seed " << seed << " step " << step << " class "
              << static_cast<int>(cls) << " reg " << reg;
        }
      }
    }
  }
}

TEST(Ruu, FullRejectsViaContract) {
  RegisterUpdateUnit ruu(2);
  ruu.allocate(kNop);
  ruu.allocate(kNop);
  EXPECT_TRUE(ruu.full());
  EXPECT_DEATH(ruu.allocate(kNop), "Expects");
}

}  // namespace
}  // namespace steersim
