#include "src/pcie/iommu.h"

#include <cassert>

#include "src/fault/fault.h"

namespace lauberhorn {

Iommu::Iommu() : Iommu(Config{}) {}

void Iommu::Map(uint64_t iova, uint64_t pa, uint64_t size) {
  assert(iova % kPageSize == 0 && pa % kPageSize == 0);
  for (uint64_t off = 0; off < size; off += kPageSize) {
    page_table_[iova + off] = pa + off;
  }
}

void Iommu::Unmap(uint64_t iova, uint64_t size) {
  for (uint64_t off = 0; off < size; off += kPageSize) {
    page_table_.erase(iova + off);
    iotlb_.erase(iova + off);
  }
}

std::optional<Iommu::Translation> Iommu::Translate(uint64_t iova, uint64_t size,
                                                   bool inject_faults) {
  const uint64_t page = iova & ~(kPageSize - 1);
  assert(((iova + size - 1) & ~(kPageSize - 1)) == page && "access crosses a page");
  if (inject_faults && faults_ != nullptr && faults_->IommuShouldFault()) {
    ++faults_count_;
    if (fault_handler_) {
      fault_handler_(iova);
    }
    return std::nullopt;
  }
  const auto it = page_table_.find(page);
  if (it == page_table_.end()) {
    ++faults_count_;
    if (fault_handler_) {
      fault_handler_(iova);
    }
    return std::nullopt;
  }
  Translation result;
  result.pa = it->second + (iova - page);
  if (iotlb_.count(page) != 0) {
    ++iotlb_hits_;
    result.cost = config_.iotlb_hit;
  } else {
    ++iotlb_misses_;
    result.cost = config_.table_walk;
    if (iotlb_.size() >= config_.iotlb_entries) {
      iotlb_.erase(iotlb_.begin());  // first in bucket order (see iommu.h)
    }
    iotlb_.insert(page);
  }
  return result;
}

}  // namespace lauberhorn
