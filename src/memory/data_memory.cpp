#include "memory/data_memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/contracts.hpp"

namespace steersim {

DataMemory::DataMemory(std::size_t size_bytes)
    : size_(size_bytes), pages_((size_bytes + kPageBytes - 1) / kPageBytes) {}

const std::uint8_t* DataMemory::page_for_load(std::uint64_t addr) const {
  const Page* page = pages_[addr / kPageBytes].get();
  return page == nullptr ? nullptr : page->data();
}

std::uint8_t* DataMemory::page_for_store(std::uint64_t addr) {
  std::unique_ptr<Page>& page = pages_[addr / kPageBytes];
  if (page == nullptr) {
    page = std::make_unique<Page>();  // value-initialized: zeroed
  }
  return page->data();
}

std::int64_t DataMemory::load_word(std::uint64_t addr) const {
  STEERSIM_EXPECTS(addr % 8 == 0);
  STEERSIM_EXPECTS(addr < size_ && size_ - addr >= 8);
  const std::uint8_t* page = page_for_load(addr);
  std::int64_t value = 0;
  if (page != nullptr) {
    std::memcpy(&value, page + addr % kPageBytes, 8);
  }
  return value;
}

void DataMemory::store_word(std::uint64_t addr, std::int64_t value) {
  STEERSIM_EXPECTS(addr % 8 == 0);
  STEERSIM_EXPECTS(addr < size_ && size_ - addr >= 8);
  std::memcpy(page_for_store(addr) + addr % kPageBytes, &value, 8);
}

std::int64_t DataMemory::load_byte(std::uint64_t addr) const {
  STEERSIM_EXPECTS(addr < size_);
  const std::uint8_t* page = page_for_load(addr);
  return page == nullptr ? 0
                         : static_cast<std::int8_t>(page[addr % kPageBytes]);
}

void DataMemory::store_byte(std::uint64_t addr, std::int64_t value) {
  STEERSIM_EXPECTS(addr < size_);
  page_for_store(addr)[addr % kPageBytes] =
      static_cast<std::uint8_t>(value & 0xff);
}

double DataMemory::load_fp(std::uint64_t addr) const {
  return std::bit_cast<double>(load_word(addr));
}

void DataMemory::store_fp(std::uint64_t addr, double value) {
  store_word(addr, std::bit_cast<std::int64_t>(value));
}

void DataMemory::load_image(std::span<const std::int64_t> words,
                            std::uint64_t base) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    store_word(base + i * 8, words[i]);
  }
}

void DataMemory::reset() {
  for (std::unique_ptr<Page>& page : pages_) {
    page.reset();
  }
}

bool operator==(const DataMemory& a, const DataMemory& b) {
  if (a.size_ != b.size_) {
    return false;
  }
  const auto is_zero = [](const DataMemory::Page& page) {
    return std::ranges::all_of(page, [](std::uint8_t v) { return v == 0; });
  };
  for (std::size_t i = 0; i < a.pages_.size(); ++i) {
    const DataMemory::Page* pa = a.pages_[i].get();
    const DataMemory::Page* pb = b.pages_[i].get();
    if (pa != nullptr && pb != nullptr) {
      if (*pa != *pb) {
        return false;
      }
    } else if (pa != nullptr || pb != nullptr) {
      if (!is_zero(pa != nullptr ? *pa : *pb)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace steersim
