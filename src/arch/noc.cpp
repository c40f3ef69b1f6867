#include "arch/noc.hpp"

#include <cstddef>
#include <cstdlib>

namespace hmps::arch {

NocModel::NocModel(const MachineParams& p, const MeshTopology& topo)
    : p_(p), topo_(topo), w_(p.mesh_w), h_(p.mesh_h),
      busy_(static_cast<std::size_t>(w_) * h_ * kDirs, 0) {
  // Multi-chip machines pay chip_hop_extra on every link that crosses a
  // chip boundary: a per-machine vector indexed like the reservation array.
  // Empty on a single chip so route() skips the lookup entirely.
  if (p.chips() > 1 && p.chip_hop_extra > 0) {
    const std::uint32_t cw = p.chip_w(), ch = p.chip_h();
    link_extra_.assign(busy_.size(), 0);
    for (std::uint32_t y = 0; y < h_; ++y) {
      for (std::uint32_t x = 0; x < w_; ++x) {
        const std::size_t base =
            (static_cast<std::size_t>(y) * w_ + x) * kDirs;
        // East/west links cross when the column boundary between x and its
        // neighbor is a chip edge; north/south likewise for rows.
        if (x + 1 < w_ && (x + 1) % cw == 0)
          link_extra_[base + kEast] = p.chip_hop_extra;
        if (x > 0 && x % cw == 0) link_extra_[base + kWest] = p.chip_hop_extra;
        if (y + 1 < h_ && (y + 1) % ch == 0)
          link_extra_[base + kSouth] = p.chip_hop_extra;
        if (y > 0 && y % ch == 0) link_extra_[base + kNorth] = p.chip_hop_extra;
      }
    }
  }
}

Cycle NocModel::route(Tid src, Tid dst, Cycle inject_time,
                      std::uint32_t words) {
  ++counters_.messages;
  Cycle t = inject_time + p_.router;
  const Cycle hold = p_.udn_per_word_wire * static_cast<Cycle>(words);
  const bool jitter = faults_ && faults_->active();
  const Cycle* extra = link_extra_.empty() ? nullptr : link_extra_.data();
  const bool stats = !link_busy_.empty();
  Cycle waited = 0;

  // Dimension-ordered: X first, then Y (TILE-Gx UDN routing). A link's
  // index is tile * kDirs + direction, so along a leg it steps by ±kDirs
  // (X) or ±w * kDirs (Y); the Y leg starts at tile (z.x, a.y).
  const Coord a = topo_.coord(src), z = topo_.coord(dst);
  const std::ptrdiff_t w = w_, dirs = kDirs;
  const auto nx = static_cast<std::uint32_t>(std::abs(z.x - a.x));
  const auto hops = nx + static_cast<std::uint32_t>(std::abs(z.y - a.y));
  std::ptrdiff_t link = (a.y * w + a.x) * dirs + (z.x > a.x ? kEast : kWest);
  std::ptrdiff_t step = z.x > a.x ? dirs : -dirs;
  for (std::uint32_t i = 0; i < hops; ++i) {
    if (i == nx) {
      link = (a.y * w + z.x) * dirs + (z.y > a.y ? kSouth : kNorth);
      step = z.y > a.y ? w * dirs : -w * dirs;
    }
    const auto l = static_cast<std::size_t>(link);
    link += step;
    // Jitter slows the flit stream itself, not just the head: the extra
    // cycles extend the link hold, so later messages crossing this link
    // queue behind the jitter exactly like they queue behind the flits.
    const Cycle jit = jitter ? faults_->hop_jitter() : 0;
    Cycle& b = busy_[l];
    const Cycle start = b > t ? b : t;
    waited += start - t;
    if (stats) {
      link_busy_[l] += hold + jit;
      link_wait_[l] += start - t;
    }
    // The link carries the message's flits back to back.
    b = start + hold + jit;
    t = start + p_.hop + jit;
    if (extra != nullptr) t += extra[l];
  }
  counters_.link_wait += waited;
  counters_.hops += hops;
  return t;
}

}  // namespace hmps::arch
