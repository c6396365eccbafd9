#include "core/ruu.hpp"

namespace steersim {

RegisterUpdateUnit::RegisterUpdateUnit(unsigned capacity) : ring_(capacity) {
  STEERSIM_EXPECTS(capacity >= 1);
  rename_.fill(kNoProducer);
}

RuuEntry& RegisterUpdateUnit::allocate(const Instruction& inst) {
  STEERSIM_EXPECTS(!full());
  RuuEntry& entry = ring_[ring_index(count_)];
  ++count_;
  entry = RuuEntry{};
  entry.id = next_id_++;
  entry.inst = inst;
  record_writer(entry);
  return entry;
}

void RegisterUpdateUnit::record_writer(const RuuEntry& entry) {
  if (entry.writes_reg()) {
    rename_[rename_index(op_info(entry.inst.op).rd_class, entry.inst.rd)] =
        entry.id;
  }
}

void RegisterUpdateUnit::rebuild_rename() {
  rename_.fill(kNoProducer);
  for (unsigned pos = 0; pos < count_; ++pos) {
    record_writer(at(pos));
  }
}

RuuEntry RegisterUpdateUnit::retire_head() {
  STEERSIM_EXPECTS(count_ > 0);
  RuuEntry entry = ring_[head_];
  head_ = ring_index(1);
  --count_;
  return entry;
}

}  // namespace steersim
