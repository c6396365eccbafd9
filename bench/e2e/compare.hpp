// steerbench's offline commands over directories of run records:
//
//   compare PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]
//       Judges a change against its parent.
//       Every end-to-end metric on every workload must stay within its
//       BENCHMARK.json bound. Where the parent's own run-to-run spread is
//       wider than the bound, a median worse by more than the bound is a
//       regression only if every change run is worse than every parent
//       run; every change run better is `better`, anything else
//       `unresolved`. Runs of one seed
//       must agree exactly on every exact count (`core.ipc` among them),
//       which cannot carry a claim. The share of failed operations must
//       not rise. A claim needs >= 10 index-paired runs (run.sh --parent
//       makes them), wins in >= 9/10 of the pairs (ties count for neither
//       side) and medians further apart than the parent's interquartile
//       range.
//       Exit 0: pass; 1: regression, exact change or claim not met;
//       2: usage or I/O error, or a record naming an unknown workload.
//
//   summary DIR
//       Median, quartiles and spread of every end-to-end metric per
//       workload, and whether the exact counts agree across runs.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "record.hpp"

namespace steerbench {

/// Every *.json record in `dir`, ordered by file name.
bool load_records(const std::string& dir, std::vector<Record>& out,
                  std::string& error);

int compare_main(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);

int summary_main(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);

}  // namespace steerbench
