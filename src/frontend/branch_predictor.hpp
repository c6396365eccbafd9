// Branch direction predictors for the fetch unit.
//
// The paper assumes but does not specify a front-end predictor; we provide
// the standard menu (static not-taken, static backward-taken/forward-not-
// taken, and a table of 2-bit saturating counters) so experiments can hold
// the front end fixed while policies vary.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sat_counter.hpp"

namespace steersim {

class BranchPredictor {
 public:
  virtual ~BranchPredictor() = default;

  /// Predicted direction for the conditional branch at `pc` whose taken
  /// target is `target` (allows static BTFN to inspect direction).
  virtual bool predict(std::uint64_t pc, std::uint64_t target) = 0;

  /// Trains on the resolved outcome.
  virtual void update(std::uint64_t pc, bool taken) = 0;
};

/// Always predicts not-taken.
class NotTakenPredictor final : public BranchPredictor {
 public:
  bool predict(std::uint64_t, std::uint64_t) override { return false; }
  void update(std::uint64_t, bool) override {}
};

/// Backward taken, forward not taken (loops predicted taken).
class BtfnPredictor final : public BranchPredictor {
 public:
  bool predict(std::uint64_t pc, std::uint64_t target) override {
    return target <= pc;
  }
  void update(std::uint64_t, bool) override {}
};

/// PC-indexed table of 2-bit saturating counters (bimodal predictor).
class TwoBitPredictor final : public BranchPredictor {
 public:
  explicit TwoBitPredictor(std::size_t table_size = 1024)
      : table_(table_size, SatCounter(2, 1)) {}

  bool predict(std::uint64_t pc, std::uint64_t) override {
    return table_[pc % table_.size()].predict_taken();
  }
  void update(std::uint64_t pc, bool taken) override {
    table_[pc % table_.size()].update(taken);
  }

 private:
  std::vector<SatCounter> table_;
};

enum class PredictorKind : std::uint8_t { kNotTaken, kBtfn, kTwoBit };

inline std::unique_ptr<BranchPredictor> make_predictor(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kNotTaken:
      return std::make_unique<NotTakenPredictor>();
    case PredictorKind::kBtfn:
      return std::make_unique<BtfnPredictor>();
    case PredictorKind::kTwoBit:
      return std::make_unique<TwoBitPredictor>();
  }
  return nullptr;
}

}  // namespace steersim
