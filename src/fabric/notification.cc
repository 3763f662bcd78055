#include "src/fabric/notification.h"

#include <algorithm>
#include <cassert>
#include <utility>

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

namespace {
// Indices of the first and the last word of [offset, offset+len), taking
// an empty range as the word holding `offset`.
std::pair<uint64_t, uint64_t> WordSpan(uint64_t offset, uint64_t len) {
  return {offset / kWordSize, (offset + (len == 0 ? 0 : len - 1)) / kWordSize};
}
}  // namespace

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
  const auto [first, last] = WordSpan(node_offset, spec.len);
  for (uint64_t word = first; word <= last; ++word) {
    std::vector<Subscription*>& list = by_word_[word];
    list.insert(std::upper_bound(list.begin(), list.end(), id,
                                 [](SubId key, const Subscription* s) {
                                   return key < s->id;
                                 }),
                raw);
  }
}

bool SubscriptionTable::Remove(SubId id) {
  std::unique_ptr<Subscription>* found = subs_.Find(id);
  if (found == nullptr) {
    return false;
  }
  const std::unique_ptr<Subscription> sub = std::move(*found);
  subs_.Erase(id);
  const auto [first, last] = WordSpan(sub->node_offset, sub->spec.len);
  for (uint64_t word = first; word <= last; ++word) {
    std::vector<Subscription*>* list = by_word_.Find(word);
    assert(list != nullptr);
    list->erase(std::find(list->begin(), list->end(), sub.get()));
    if (list->empty()) {
      by_word_.Erase(word);
    }
  }
  return true;
}

void SubscriptionTable::Collect(uint64_t offset, uint64_t len,
                                std::vector<Subscription*>& out) {
  const size_t begin = out.size();
  const auto [first, last] = WordSpan(offset, len);
  for (uint64_t word = first; word <= last; ++word) {
    const std::vector<Subscription*>* list = by_word_.Find(word);
    if (list == nullptr) {
      continue;
    }
    for (Subscription* sub : *list) {
      const uint64_t sub_lo = sub->node_offset;
      const uint64_t sub_hi = sub_lo + sub->spec.len;
      // A range covering several written words is taken at the first.
      if (word == std::max(first, sub_lo / kWordSize) && offset < sub_hi &&
          sub_lo < offset + len) {
        out.push_back(sub);
      }
    }
  }
  if (last > first) {  // one word's list is already in SubId order
    std::sort(out.begin() + begin, out.end(),
              [](const Subscription* a, const Subscription* b) {
                return a->id < b->id;
              });
  }
}

}  // namespace fmds
