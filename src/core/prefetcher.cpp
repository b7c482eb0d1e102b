#include "core/prefetcher.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace eevfs::core {

Prefetcher::Prefetcher(EnergyPredictionModel data_disk_model,
                       disk::DiskProfile buffer_profile, bool prebud_gate)
    : model_(std::move(data_disk_model)),
      buffer_profile_(std::move(buffer_profile)),
      prebud_gate_(prebud_gate) {}

PrefetchPlan Prefetcher::plan(std::span<const PrefetchCandidate> candidates,
                              std::span<const FileHints> file_accesses,
                              std::vector<std::vector<Tick>> disk_accesses,
                              Tick horizon, Bytes capacity,
                              Bytes ram_capacity) const {
  PrefetchPlan out;
  out.residual_disk_accesses = std::move(disk_accesses);

  const auto accesses_of = [&](trace::FileId f) -> std::span<const Tick> {
    const auto it = std::lower_bound(
        file_accesses.begin(), file_accesses.end(), f,
        [](const FileHints& h, trace::FileId key) { return h.file < key; });
    return it == file_accesses.end() || it->file != f
               ? std::span<const Tick>()
               : it->offsets;
  };

  // Tier split: the hottest candidates that fit the RAM pin budget go to
  // the RAM tier, rank-first.  A RAM hit touches no spindle, so pinning
  // needs no energy gate; removing the pinned accesses from the residual
  // timelines here means both the PRE-BUD gate below and the power
  // manager's expected-gap schedule price only the post-RAM traffic.
  Bytes ram_remaining = ram_capacity;
  std::vector<PrefetchCandidate> buffer_candidates;
  if (ram_capacity > 0) {
    buffer_candidates.reserve(candidates.size());
    for (const PrefetchCandidate& c : candidates) {
      if (c.bytes <= ram_remaining) {
        ram_remaining -= c.bytes;
        for (const std::size_t d : c.disks) {
          remove_accesses(out.residual_disk_accesses[d], accesses_of(c.file));
        }
        out.ram_pinned.push_back(c);
        out.ram_pinned_bytes += c.bytes;
      } else {
        buffer_candidates.push_back(c);
      }
    }
    candidates = buffer_candidates;
  }

  // Group candidates by the *set* of disks they touch, preserving rank
  // order within a group.  The PRE-BUD benefit of buffering files is not
  // additive (single files rarely open a sleep window; a set does), so
  // the gate scores rank-order *prefixes* per disk set and accepts the
  // best-scoring one.  Whole-file placement yields singleton sets; with
  // striping a group spans the stripe's disks.
  std::map<std::vector<std::size_t>, std::vector<PrefetchCandidate>> groups;
  for (const PrefetchCandidate& c : candidates) {
    groups[c.disks].push_back(c);
  }
  // Summed over the disk set in its order, as the timelines are priced.
  const auto set_savings = [&](const std::vector<std::vector<Tick>>& set) {
    Joules total = 0.0;
    for (const std::vector<Tick>& timeline : set) {
      total += model_.predicted_savings(timeline, 0, horizon);
    }
    return total;
  };
  Bytes remaining = capacity;
  // The priced disk set's working timelines, reused across groups: the
  // gate never copies the whole plan.
  std::vector<std::vector<Tick>> work;
  for (auto& [disks, list] : groups) {
    if (list.empty()) continue;

    if (!prebud_gate_) {
      for (const PrefetchCandidate& c : list) {
        if (c.bytes > remaining) continue;
        for (const std::size_t d : disks) {
          remove_accesses(out.residual_disk_accesses[d], accesses_of(c.file));
        }
        out.accepted.push_back(c);
        out.total_bytes += c.bytes;
        remaining -= c.bytes;
      }
      continue;
    }

    work.resize(disks.size());
    for (std::size_t i = 0; i < disks.size(); ++i) {
      const std::vector<Tick>& residual =
          out.residual_disk_accesses.at(disks[i]);
      work[i].assign(residual.begin(), residual.end());
    }
    const Joules base_savings = set_savings(work);
    Joules copy_cost_sum = 0.0;
    Joules best_benefit = 0.0;
    std::size_t best_k = 0;
    std::size_t priced = 0;  // prefix length `work` has removed
    Bytes prefix_bytes = 0;

    for (; priced < list.size(); ++priced) {
      const PrefetchCandidate& c = list[priced];
      if (prefix_bytes + c.bytes > remaining) break;
      prefix_bytes += c.bytes;
      for (std::vector<Tick>& timeline : work) {
        remove_accesses(timeline, accesses_of(c.file));
      }
      copy_cost_sum +=
          model_.copy_cost(c.bytes, c.disks.size(), buffer_profile_);
      const Joules benefit = set_savings(work) - base_savings - copy_cost_sum;
      if (benefit > best_benefit) {
        best_benefit = benefit;
        best_k = priced + 1;
      }
    }

    for (std::size_t k = 0; k < list.size(); ++k) {
      if (k < best_k) {
        out.accepted.push_back(list[k]);
        out.total_bytes += list[k].bytes;
        remaining -= list[k].bytes;
      } else {
        out.rejected_by_gate.push_back(list[k].file);
      }
    }
    if (best_k > 0) {
      // The residual of the best prefix: the working timelines when it is
      // the longest one priced, else its removals replayed in place.
      for (std::size_t i = 0; i < disks.size(); ++i) {
        std::vector<Tick>& residual = out.residual_disk_accesses[disks[i]];
        if (best_k == priced) {
          residual.swap(work[i]);
        } else {
          for (std::size_t k = 0; k < best_k; ++k) {
            remove_accesses(residual, accesses_of(list[k].file));
          }
        }
      }
      out.predicted_benefit += best_benefit;
    }
  }
  return out;
}

}  // namespace eevfs::core
