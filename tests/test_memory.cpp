// Unit tests for the memory system: register files and data memory.
#include <gtest/gtest.h>

#include <cmath>

#include "memory/cache.hpp"
#include "memory/data_memory.hpp"
#include "memory/instruction_memory.hpp"
#include "memory/register_file.hpp"

namespace steersim {
namespace {

TEST(RegisterFile, R0IsHardwiredZero) {
  RegisterFile regs;
  regs.write_int(0, 1234);
  EXPECT_EQ(regs.read_int(0), 0);
  regs.write_int(1, 1234);
  EXPECT_EQ(regs.read_int(1), 1234);
}

TEST(RegisterFile, FpRegistersIndependent) {
  RegisterFile regs;
  regs.write_fp(0, 1.5);  // f0 is a normal register
  regs.write_int(5, 7);
  regs.write_fp(5, 2.5);
  EXPECT_DOUBLE_EQ(regs.read_fp(0), 1.5);
  EXPECT_EQ(regs.read_int(5), 7);
  EXPECT_DOUBLE_EQ(regs.read_fp(5), 2.5);
}

TEST(RegisterFile, EqualityIsBitExactForNan) {
  RegisterFile a;
  RegisterFile b;
  a.write_fp(1, std::nan(""));
  b.write_fp(1, std::nan(""));
  EXPECT_TRUE(a == b);
  b.write_fp(2, 0.5);
  EXPECT_FALSE(a == b);
}

TEST(RegisterFile, NegativeZeroDiffersFromZero) {
  RegisterFile a;
  RegisterFile b;
  a.write_fp(1, 0.0);
  b.write_fp(1, -0.0);
  EXPECT_FALSE(a == b);  // bit-exact comparison
}

TEST(DataMemory, WordRoundTrip) {
  DataMemory mem(1024);
  mem.store_word(8, -123456789);
  EXPECT_EQ(mem.load_word(8), -123456789);
  EXPECT_EQ(mem.load_word(0), 0);
}

TEST(DataMemory, ByteSignExtension) {
  DataMemory mem(64);
  mem.store_byte(3, 0xFF);
  EXPECT_EQ(mem.load_byte(3), -1);
  mem.store_byte(4, 0x7F);
  EXPECT_EQ(mem.load_byte(4), 127);
}

TEST(DataMemory, BytesComposeIntoWords) {
  DataMemory mem(64);
  for (std::uint64_t i = 0; i < 8; ++i) {
    mem.store_byte(i, static_cast<std::int64_t>(i + 1));
  }
  // little-endian composition
  EXPECT_EQ(mem.load_word(0), 0x0807060504030201LL);
}

TEST(DataMemory, FpRoundTripIncludingNan) {
  DataMemory mem(64);
  mem.store_fp(16, 3.25);
  EXPECT_DOUBLE_EQ(mem.load_fp(16), 3.25);
  mem.store_fp(24, std::nan(""));
  EXPECT_TRUE(std::isnan(mem.load_fp(24)));
}

TEST(DataMemory, LoadImageAtBase) {
  DataMemory mem(128);
  const std::int64_t words[] = {10, 20, 30};
  mem.load_image(words, 16);
  EXPECT_EQ(mem.load_word(16), 10);
  EXPECT_EQ(mem.load_word(32), 30);
  EXPECT_EQ(mem.load_word(0), 0);
}

TEST(DataMemory, ResetClears) {
  DataMemory mem(64);
  mem.store_word(0, 99);
  mem.reset();
  EXPECT_EQ(mem.load_word(0), 0);
}

TEST(DataMemory, WholeRangeReadsZeroBeforeAnyStore) {
  // 2.5 pages: the last page is partial.
  const std::size_t size = DataMemory::kPageBytes * 5 / 2;
  const DataMemory mem(size);
  for (std::uint64_t addr = 0; addr < size; addr += 8) {
    ASSERT_EQ(mem.load_word(addr), 0) << addr;
  }
  for (std::uint64_t addr = 0; addr < size; ++addr) {
    ASSERT_EQ(mem.load_byte(addr), 0) << addr;
  }
}

TEST(DataMemory, StoredThenZeroedEqualsUntouched) {
  const std::size_t size = DataMemory::kPageBytes * 3;
  const DataMemory untouched(size);
  DataMemory mem(size);
  EXPECT_TRUE(mem == untouched);
  mem.store_word(DataMemory::kPageBytes + 16, 42);
  mem.store_byte(2 * DataMemory::kPageBytes + 5, -1);
  EXPECT_FALSE(mem == untouched);
  EXPECT_FALSE(untouched == mem);
  mem.store_word(DataMemory::kPageBytes + 16, 0);
  EXPECT_FALSE(mem == untouched);  // the byte store still differs
  mem.store_byte(2 * DataMemory::kPageBytes + 5, 0);
  EXPECT_TRUE(mem == untouched);  // allocated pages of zeros == no pages
  EXPECT_TRUE(untouched == mem);

  // Two allocated pages compare by content.
  DataMemory other(size);
  other.store_word(DataMemory::kPageBytes + 16, 7);
  mem.store_word(DataMemory::kPageBytes + 16, 7);
  EXPECT_TRUE(mem == other);
  other.store_byte(DataMemory::kPageBytes + 100, 1);
  EXPECT_FALSE(mem == other);
  EXPECT_FALSE(DataMemory(size) == DataMemory(size + 8));
}

TEST(DataMemory, ResetDropsEveryPage) {
  DataMemory mem(DataMemory::kPageBytes * 2);
  mem.store_word(0, 5);
  mem.store_word(DataMemory::kPageBytes + 8, 6);
  mem.reset();
  EXPECT_EQ(mem.load_word(0), 0);
  EXPECT_EQ(mem.load_word(DataMemory::kPageBytes + 8), 0);
  EXPECT_TRUE(mem == DataMemory(DataMemory::kPageBytes * 2));
  mem.store_word(8, 9);  // a dropped page comes back zeroed
  EXPECT_EQ(mem.load_word(0), 0);
  EXPECT_EQ(mem.load_word(8), 9);
}

TEST(DataMemory, WordsNeverStraddlePages) {
  DataMemory mem(DataMemory::kPageBytes * 2);
  const std::uint64_t last = DataMemory::kPageBytes - 8;
  mem.store_word(last, -2);
  mem.store_word(last + 8, 3);
  EXPECT_EQ(mem.load_word(last), -2);
  EXPECT_EQ(mem.load_word(last + 8), 3);
  EXPECT_EQ(mem.load_byte(last + 7), -1);
  EXPECT_EQ(mem.load_byte(last + 8), 3);
}

using DataMemoryDeathTest = ::testing::Test;

TEST(DataMemoryDeathTest, PartialLastPageHonoursTheSizeBound) {
  // The last page has whole storage, but only 104 of its bytes exist.
  const std::size_t size = DataMemory::kPageBytes + 104;
  DataMemory mem(size);
  mem.store_word(size - 8, 11);
  EXPECT_EQ(mem.load_word(size - 8), 11);
  mem.store_byte(size - 1, 1);
  EXPECT_DEATH(mem.load_word(size), "Expects");
  EXPECT_DEATH(mem.store_word(size, 1), "Expects");
  EXPECT_DEATH(mem.load_byte(size), "Expects");
  EXPECT_DEATH(mem.store_byte(size + 7, 1), "Expects");
}

TEST(DataMemoryDeathTest, WrappingAddressAborts) {
  // addr + 8 wraps to 0: the bound must not be computed as addr + 8.
  DataMemory mem(64);
  EXPECT_DEATH(mem.store_word(~std::uint64_t{7}, 1), "Expects");
  EXPECT_DEATH(mem.load_word(~std::uint64_t{7}), "Expects");
}

TEST(DataMemoryDeathTest, OutOfRangeWordAborts) {
  DataMemory mem(64);
  EXPECT_DEATH(mem.load_word(64), "Expects");
  EXPECT_DEATH(mem.store_word(1000, 1), "Expects");
}

TEST(DataMemoryDeathTest, MisalignedWordAborts) {
  DataMemory mem(64);
  EXPECT_DEATH(mem.load_word(4), "Expects");
}

CacheParams small_cache() {
  CacheParams p;
  p.line_bytes = 64;
  p.num_sets = 4;
  p.ways = 2;
  p.hit_latency = 3;
  p.miss_latency = 20;
  return p;
}

TEST(DataCache, ColdMissThenHit) {
  DataCache cache(small_cache());
  EXPECT_FALSE(cache.would_hit(0));
  EXPECT_EQ(cache.access(0), 20u);  // cold miss
  EXPECT_TRUE(cache.would_hit(0));
  EXPECT_EQ(cache.access(8), 3u);  // same line
  EXPECT_EQ(cache.access(63), 3u);
  EXPECT_EQ(cache.access(64), 20u);  // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DataCache, SetConflictEvictsLru) {
  DataCache cache(small_cache());
  // Lines mapping to set 0: addresses k * 64 * 4 (4 sets).
  const std::uint64_t stride = 64 * 4;
  EXPECT_EQ(cache.access(0 * stride), 20u);
  EXPECT_EQ(cache.access(1 * stride), 20u);  // fills both ways
  EXPECT_EQ(cache.access(0 * stride), 3u);   // touch way 0 (now MRU)
  EXPECT_EQ(cache.access(2 * stride), 20u);  // evicts way 1 (LRU)
  EXPECT_TRUE(cache.would_hit(0 * stride));
  EXPECT_FALSE(cache.would_hit(1 * stride));
  EXPECT_TRUE(cache.would_hit(2 * stride));
}

TEST(DataCache, WouldHitHasNoSideEffects) {
  DataCache cache(small_cache());
  (void)cache.would_hit(128);
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_FALSE(cache.would_hit(128));
}

TEST(DataCache, ClearInvalidatesEverything) {
  DataCache cache(small_cache());
  cache.access(0);
  cache.clear();
  EXPECT_FALSE(cache.would_hit(0));
}

TEST(DataCache, SequentialStreamMissRateMatchesLineSize) {
  DataCache cache(small_cache());
  unsigned misses = 0;
  for (std::uint64_t addr = 0; addr < 1024; addr += 8) {
    if (cache.access(addr) == 20u) {
      ++misses;
    }
  }
  EXPECT_EQ(misses, 1024 / 64);  // one miss per 64-byte line
}

TEST(InstructionMemory, EncodesAndFetchesProgram) {
  Program p;
  p.code.push_back(make_ri(Opcode::kAddi, 1, 0, 5));
  p.code.push_back(Instruction{Opcode::kHalt, 0, 0, 0, 0});
  InstructionMemory imem(p);
  EXPECT_EQ(imem.size(), 2u);
  EXPECT_TRUE(imem.contains(1));
  EXPECT_FALSE(imem.contains(2));
  EXPECT_EQ(decode(imem.fetch(0)), p.code[0]);
  EXPECT_EQ(decode(imem.fetch(1)), p.code[1]);
}

}  // namespace
}  // namespace steersim
