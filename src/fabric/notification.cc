#include "src/fabric/notification.h"

#include <algorithm>

namespace fmds {

void NotificationChannel::Publish(NotifyEvent event, bool coalesce) {
  std::lock_guard<std::mutex> lock(mu_);
  ++published_;
  if (coalesce && event.kind == NotifyEventKind::kChanged) {
    auto it = pending_index_.find(event.sub_id);
    if (it != pending_index_.end() && it->second < queue_.size()) {
      NotifyEvent& queued = queue_[it->second];
      if (queued.sub_id == event.sub_id &&
          queued.kind == NotifyEventKind::kChanged) {
        // Merge: extend the covered range, keep the freshest payload.
        const FarAddr lo = std::min(queued.addr, event.addr);
        const FarAddr hi =
            std::max(queued.addr + queued.len, event.addr + event.len);
        queued.addr = lo;
        queued.len = hi - lo;
        queued.coalesced += 1 + event.coalesced;
        queued.word = event.word;  // latest write wins
        if (!event.data.empty()) {
          queued.data = std::move(event.data);
        }
        ++coalesced_;
        return;
      }
    }
  }
  if (queue_.size() >= capacity_) {
    // Overflow: drop the event, remember to surface a single loss warning.
    ++overflow_lost_;
    if (!loss_pending_) {
      loss_pending_ = true;
      NotifyEvent warn;
      warn.kind = NotifyEventKind::kLossWarning;
      // Replace the oldest queued event so the warning is guaranteed to fit.
      if (!queue_.empty()) {
        queue_.pop_front();
        // Indices into queue_ shifted; rebuild the coalescing index.
        pending_index_.clear();
        for (size_t i = 0; i < queue_.size(); ++i) {
          pending_index_[queue_[i].sub_id] = i;
        }
      }
      queue_.push_back(std::move(warn));
    }
    return;
  }
  if (coalesce) {
    pending_index_[event.sub_id] = queue_.size();
  }
  queue_.push_back(std::move(event));
}

std::vector<NotifyEvent> NotificationChannel::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NotifyEvent> out(std::make_move_iterator(queue_.begin()),
                               std::make_move_iterator(queue_.end()));
  queue_.clear();
  pending_index_.clear();
  loss_pending_ = false;
  return out;
}

size_t NotificationChannel::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t NotificationChannel::published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

uint64_t NotificationChannel::overflow_lost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflow_lost_;
}

uint64_t NotificationChannel::coalesced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_;
}

NotificationSink* DiscardingSink() {
  struct Discard : NotificationSink {
    void OnNotify(const NotifyEvent&) override {}
  };
  static Discard sink;
  return &sink;
}

void NotificationInbox::OnNotify(const NotifyEvent& event) {
  if (events_.size() >= capacity_) {
    events_.clear();
    NotifyEvent loss;
    loss.kind = NotifyEventKind::kLossWarning;
    events_.push_back(std::move(loss));
    return;
  }
  events_.push_back(event);
}

std::optional<NotifyEvent> NotificationInbox::Pop() {
  if (events_.empty()) {
    return std::nullopt;
  }
  NotifyEvent event = std::move(events_.front());
  events_.pop_front();
  return event;
}

void SubscriptionTable::Add(uint64_t node_offset, const NotifySpec& spec,
                            NotificationChannel* channel, SubId id) {
  auto sub = std::make_unique<Subscription>();
  sub->id = id;
  sub->spec = spec;
  sub->node_offset = node_offset;
  sub->channel = channel;
  sub->drop_rng.Seed(0x1005ULL * id + 17);
  Subscription* raw = sub.get();
  subs_[id] = std::move(sub);
  by_page_[PageIndexOf(node_offset)].push_back(raw);
}

bool SubscriptionTable::Remove(SubId id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) {
    return false;
  }
  const uint64_t page = PageIndexOf(it->second->node_offset);
  auto page_it = by_page_.find(page);
  if (page_it != by_page_.end()) {
    auto& vec = page_it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), it->second.get()),
              vec.end());
    if (vec.empty()) {
      by_page_.erase(page_it);
    }
  }
  subs_.erase(it);
  return true;
}

void SubscriptionTable::Collect(uint64_t offset, uint64_t len,
                                std::vector<Subscription*>& out) {
  const uint64_t first_page = PageIndexOf(offset);
  const uint64_t last_page = PageIndexOf(offset + (len == 0 ? 0 : len - 1));
  for (uint64_t page = first_page; page <= last_page; ++page) {
    auto it = by_page_.find(page);
    if (it == by_page_.end()) {
      continue;
    }
    for (Subscription* sub : it->second) {
      const uint64_t sub_lo = sub->node_offset;
      const uint64_t sub_hi = sub_lo + sub->spec.len;
      if (offset < sub_hi && sub_lo < offset + len) {
        out.push_back(sub);
      }
    }
  }
}

}  // namespace fmds
