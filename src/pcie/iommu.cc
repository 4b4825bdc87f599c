#include "src/pcie/iommu.h"

#include <algorithm>
#include <cassert>

#include "src/fault/fault.h"

namespace lauberhorn {
namespace {

// Bytes of the pages that [0, size) touches.
uint64_t PageCeil(uint64_t size) {
  return (size + Iommu::kPageSize - 1) & ~(Iommu::kPageSize - 1);
}

}  // namespace

Iommu::Iommu() : Iommu(Config{}) {}

void Iommu::Erase(uint64_t begin, uint64_t end) {
  // The first extent that ends past `begin`; extents are disjoint and sorted,
  // so their ends are sorted too.
  auto it = std::partition_point(extents_.begin(), extents_.end(),
                                 [begin](const Extent& e) { return e.end() <= begin; });
  if (it != extents_.end() && it->iova < begin) {
    const Extent whole = *it;
    it->size = begin - whole.iova;  // keep the head
    ++it;
    if (whole.end() > end) {
      // The range lies inside one extent: keep its tail as a second piece.
      extents_.insert(it, Extent{end, whole.end() - end, whole.pa + (end - whole.iova)});
      return;
    }
  }
  auto last = it;
  while (last != extents_.end() && last->end() <= end) {
    ++last;
  }
  if (last != extents_.end() && last->iova < end) {
    const uint64_t cut = end - last->iova;  // keep the tail
    last->iova = end;
    last->size -= cut;
    last->pa += cut;
  }
  extents_.erase(it, last);
}

void Iommu::Map(uint64_t iova, uint64_t pa, uint64_t size) {
  assert(iova % kPageSize == 0 && pa % kPageSize == 0);
  const uint64_t bytes = PageCeil(size);
  if (bytes == 0) {
    return;
  }
  Erase(iova, iova + bytes);
  auto it = std::partition_point(extents_.begin(), extents_.end(),
                                 [iova](const Extent& e) { return e.iova < iova; });
  it = extents_.insert(it, Extent{iova, bytes, pa});
  const auto adjacent = [](const Extent& a, const Extent& b) {
    return a.end() == b.iova && a.pa + a.size == b.pa;
  };
  if (auto next = it + 1; next != extents_.end() && adjacent(*it, *next)) {
    it->size += next->size;
    extents_.erase(next);
  }
  if (it != extents_.begin() && adjacent(*(it - 1), *it)) {
    (it - 1)->size += it->size;
    extents_.erase(it);
  }
}

void Iommu::Unmap(uint64_t iova, uint64_t size) {
  assert(iova % kPageSize == 0);
  const uint64_t end = iova + PageCeil(size);
  if (end == iova) {
    return;
  }
  Erase(iova, end);
  std::erase_if(iotlb_, [iova, end](uint64_t page) { return page >= iova && page < end; });
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
  // The last extent starting at or before the page.
  const auto it = std::partition_point(extents_.begin(), extents_.end(),
                                       [page](const Extent& e) { return e.iova <= page; });
  if (it == extents_.begin() || (it - 1)->end() <= page) {
    ++faults_count_;
    if (fault_handler_) {
      fault_handler_(iova);
    }
    return std::nullopt;
  }
  const Extent& extent = *(it - 1);
  Translation result;
  result.pa = extent.pa + (iova - extent.iova);
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
