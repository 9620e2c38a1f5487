#include "sampling/sampler.h"

#include <algorithm>
#include <bit>
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

template <typename T>
void EdgeMaskScratch::DrawSorted(Rng* rng, uint64_t n, uint64_t k,
                                 std::vector<T>* out) {
  ENSEMFDET_CHECK(k <= n) << "sample size " << k << " > population " << n;
  if (out->capacity() < static_cast<size_t>(k)) ++grow_events;
  out->clear();
  out->reserve(static_cast<size_t>(k));
  // Both branches draw the identical set for the identical rng
  // consumption (step i draws j = i + NextBounded(n - i) and takes the
  // value living at slot j), so the choice is purely a performance one
  // and may differ per call:
  //  * dense draws (k ≥ n/16): real Fisher-Yates over a cached 32-bit
  //    index array — an O(n) sequential refresh beats per-draw hashing —
  //    and a bitmap that sorts the draws in one O(n/64) scan; the
  //    retained buffers are bounded by 16k, not by the population;
  //  * sparse draws, and populations a 32-bit index cannot hold: Rng's
  //    O(k) hash-displacement variant, so a tiny sample of a huge
  //    population costs O(k log k) time and O(k) memory.
  if (k < n / 16 || n > std::numeric_limits<uint32_t>::max()) {
    if (drawn.capacity() < static_cast<size_t>(k)) ++grow_events;
    rng->SampleWithoutReplacement(n, k, &drawn);
    std::sort(drawn.begin(), drawn.end());
    out->assign(drawn.begin(), drawn.end());
    return;
  }
  if (fy_perm.capacity() < static_cast<size_t>(n)) ++grow_events;
  fy_perm.resize(static_cast<size_t>(n));
  std::iota(fy_perm.begin(), fy_perm.end(), uint32_t{0});
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  if (draw_bits.size() < words) {
    if (draw_bits.capacity() < words) ++grow_events;
    draw_bits.resize(words, 0);
  }
  for (uint64_t i = 0; i < k; ++i) {
    const uint64_t j = i + rng->NextBounded(n - i);
    std::swap(fy_perm[static_cast<size_t>(i)], fy_perm[static_cast<size_t>(j)]);
    const uint32_t v = fy_perm[static_cast<size_t>(i)];
    draw_bits[v >> 6] |= uint64_t{1} << (v & 63);
  }
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = draw_bits[w];
    if (bits == 0) continue;
    draw_bits[w] = 0;
    const uint64_t base = static_cast<uint64_t>(w) * 64;
    do {
      out->push_back(static_cast<T>(base + static_cast<uint64_t>(
                                               std::countr_zero(bits))));
      bits &= bits - 1;
    } while (bits != 0);
  }
}

template void EdgeMaskScratch::DrawSorted(Rng*, uint64_t, uint64_t,
                                          std::vector<uint32_t>*);
template void EdgeMaskScratch::DrawSorted(Rng*, uint64_t, uint64_t,
                                          std::vector<EdgeId>*);

int64_t EdgeMaskScratch::CapacityBytes() const {
  return static_cast<int64_t>(
      (drawn.capacity() + draw_bits.capacity()) * sizeof(uint64_t) +
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
