// IOMMU/SMMU model: translates device-visible IOVAs to host physical
// addresses at 4 KiB page granularity, with an IOTLB and faults on unmapped
// access. The paper (§3) notes the SMMU's two conflated roles — data-path
// translation for pass-through and firewalling the device; this model is the
// former, and its per-access cost is part of why descriptor DMA is expensive.
#ifndef SRC_PCIE_IOMMU_H_
#define SRC_PCIE_IOMMU_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/time.h"

namespace lauberhorn {

class FaultInjector;

class Iommu {
 public:
  static constexpr uint64_t kPageSize = 4096;

  struct Config {
    Duration iotlb_hit = Nanoseconds(5);
    Duration table_walk = Nanoseconds(90);  // IOTLB miss: page-table walk
    size_t iotlb_entries = 64;
  };

  Iommu();  // default config
  explicit Iommu(Config config) : config_(config) {}

  // Maps [iova, iova+size) -> [pa, pa+size); both must be page-aligned. A
  // size that is not a page multiple covers its last partial page. Pages
  // already mapped are remapped: the last Map of a page wins.
  void Map(uint64_t iova, uint64_t pa, uint64_t size);
  // Unmaps the pages of [iova, iova+size) (iova page-aligned) and drops them
  // from the IOTLB. Unmapped pages in the range are ignored.
  void Unmap(uint64_t iova, uint64_t size);

  struct Translation {
    uint64_t pa = 0;
    Duration cost = 0;  // iotlb_hit or table_walk
  };

  // Translates one access that must not cross a page boundary. Returns
  // nullopt and records a fault if unmapped. `inject_faults` false exempts the
  // access from *injected* transient faults (genuine unmapped accesses still
  // fault) — used for control-structure DMA, where a real device failing
  // translation is a fatal error outside this model's recoverable-fault scope.
  std::optional<Translation> Translate(uint64_t iova, uint64_t size,
                                       bool inject_faults = true);

  uint64_t faults() const { return faults_count_; }
  uint64_t iotlb_hits() const { return iotlb_hits_; }
  uint64_t iotlb_misses() const { return iotlb_misses_; }

  // Invoked on every fault with the offending IOVA.
  void set_fault_handler(Function<void(uint64_t)> handler) {
    fault_handler_ = std::move(handler);
  }

  // Optional fault injection (src/fault): transient translation faults, in
  // bursts, on otherwise-mapped pages. Each one goes through the same
  // accounting and fault_handler_ path as a genuine unmapped access.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

 private:
  // A run of mapped pages: [iova, iova + size) -> [pa, pa + size).
  struct Extent {
    uint64_t iova = 0;
    uint64_t size = 0;  // a page multiple
    uint64_t pa = 0;
    uint64_t end() const { return iova + size; }
  };

  // Removes [begin, end) (page-aligned) from the table, trimming or splitting
  // the extents that straddle its edges.
  void Erase(uint64_t begin, uint64_t end);

  Config config_;
  // The page table: disjoint extents sorted by iova, with neighbours that
  // are contiguous in both iova and pa merged, so an identity-mapped region
  // is one extent. A lookup is a binary search.
  std::vector<Extent> extents_;
  // Cached iova pages. A full IOTLB evicts iotlb_.begin(): whichever page
  // comes first in the hash table's bucket order. That is neither LRU nor
  // seeded-random; results depend on the standard library's bucket layout,
  // which depends on hashes and insertion order but not on node addresses,
  // so the nodes come from the spill free lists instead of malloc.
  std::unordered_set<uint64_t, std::hash<uint64_t>, std::equal_to<uint64_t>,
                     spill::Allocator<uint64_t>>
      iotlb_;
  uint64_t faults_count_ = 0;
  uint64_t iotlb_hits_ = 0;
  uint64_t iotlb_misses_ = 0;
  Function<void(uint64_t)> fault_handler_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace lauberhorn

#endif  // SRC_PCIE_IOMMU_H_
