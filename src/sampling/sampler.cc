#include "sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "sampling/one_side_node_sampler.h"
#include "sampling/random_edge_sampler.h"
#include "sampling/two_side_node_sampler.h"

namespace ensemfdet {

int64_t SampleTargetCount(double ratio, int64_t population) {
  int64_t target = static_cast<int64_t>(
      std::floor(ratio * static_cast<double>(population)));
  if (population > 0 && target == 0) target = 1;
  return target;
}

uint32_t EdgeMaskScratch::NextEpoch() {
  if (++epoch == 0) {
    std::fill(user_mark.begin(), user_mark.end(), 0u);
    std::fill(merchant_mark.begin(), merchant_mark.end(), 0u);
    epoch = 1;
  }
  return epoch;
}

void EdgeMaskScratch::EnsureMark(std::vector<uint32_t>* mark, int64_t n) {
  if (mark->size() < static_cast<size_t>(n)) {
    mark->resize(static_cast<size_t>(n), 0u);
    ++grow_events;
  }
}

void EdgeMaskScratch::SampleWithoutReplacement(Rng* rng, uint64_t n,
                                               uint64_t k,
                                               std::vector<uint64_t>* out) {
  ENSEMFDET_CHECK(k <= n) << "sample size " << k << " > population " << n;
  // Both branches emit the identical selection-order output for the
  // identical rng consumption (step i draws j = i + NextBounded(n - i)
  // and emits the value living at slot j), so the choice is purely a
  // performance one and may differ per call:
  //  * dense draws (k ≥ n/16): real Fisher-Yates over a cached 32-bit
  //    index array — an O(n) sequential refresh beats per-draw hashing,
  //    and the retained buffer is bounded by 16k, not by the population;
  //  * sparse draws, and populations a 32-bit index cannot hold: Rng's
  //    O(k) hash-displacement variant, so a tiny sample of a huge
  //    population costs O(k) time and memory.
  if (k < n / 16 || n > std::numeric_limits<uint32_t>::max()) {
    rng->SampleWithoutReplacement(n, k, out);
    return;
  }
  if (fy_perm.capacity() < static_cast<size_t>(n)) ++grow_events;
  fy_perm.resize(static_cast<size_t>(n));
  std::iota(fy_perm.begin(), fy_perm.end(), uint32_t{0});
  if (out->capacity() < static_cast<size_t>(k)) ++grow_events;
  out->clear();
  out->reserve(static_cast<size_t>(k));
  for (uint64_t i = 0; i < k; ++i) {
    const uint64_t j = i + rng->NextBounded(n - i);
    std::swap(fy_perm[static_cast<size_t>(i)], fy_perm[static_cast<size_t>(j)]);
    out->push_back(fy_perm[static_cast<size_t>(i)]);
  }
}

int64_t EdgeMaskScratch::CapacityBytes() const {
  return static_cast<int64_t>(
      drawn.capacity() * sizeof(uint64_t) +
      (fy_perm.capacity() + selected.capacity() + selected_other.capacity() +
       user_mark.capacity() + merchant_mark.capacity()) *
          sizeof(uint32_t));
}

const char* SampleMethodName(SampleMethod method) {
  switch (method) {
    case SampleMethod::kRandomEdge:
      return "random_edge";
    case SampleMethod::kOneSideUser:
      return "one_side_user";
    case SampleMethod::kOneSideMerchant:
      return "one_side_merchant";
    case SampleMethod::kTwoSide:
      return "two_side";
  }
  return "unknown";
}

Result<SampleMethod> ParseSampleMethod(const std::string& name) {
  if (name == "random_edge") return SampleMethod::kRandomEdge;
  if (name == "one_side_user") return SampleMethod::kOneSideUser;
  if (name == "one_side_merchant") return SampleMethod::kOneSideMerchant;
  if (name == "two_side") return SampleMethod::kTwoSide;
  return Status::NotFound("unknown sample method: " + name);
}

Result<std::unique_ptr<Sampler>> MakeSampler(SampleMethod method, double ratio,
                                             bool reweight_edges) {
  if (!(ratio > 0.0) || ratio > 1.0) {
    return Status::InvalidArgument("sample ratio must be in (0, 1], got " +
                                   std::to_string(ratio));
  }
  switch (method) {
    case SampleMethod::kRandomEdge:
      return std::unique_ptr<Sampler>(
          new RandomEdgeSampler(ratio, reweight_edges));
    case SampleMethod::kOneSideUser:
      return std::unique_ptr<Sampler>(
          new OneSideNodeSampler(Side::kUser, ratio));
    case SampleMethod::kOneSideMerchant:
      return std::unique_ptr<Sampler>(
          new OneSideNodeSampler(Side::kMerchant, ratio));
    case SampleMethod::kTwoSide:
      return std::unique_ptr<Sampler>(new TwoSideNodeSampler(ratio));
  }
  return Status::InvalidArgument("unknown sample method enum value");
}

}  // namespace ensemfdet
