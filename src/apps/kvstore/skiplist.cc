#include "apps/kvstore/skiplist.h"

#include <algorithm>
#include <cassert>
#include <new>

namespace hyperloop::apps {

// One allocation per node: the header below is followed directly by the
// node's `next` tower, sized to its height, so a search step loads the
// successor pointer and the successor's key without a second indirection.
struct SkipNode {
  uint64_t key = 0;
  std::vector<uint8_t> value;

  SkipNode** next() { return reinterpret_cast<SkipNode**>(this + 1); }
  SkipNode* const* next() const {
    return reinterpret_cast<SkipNode* const*>(this + 1);
  }
};
static_assert(sizeof(SkipNode) % alignof(SkipNode*) == 0);

namespace {

SkipNode* new_node(int height, uint64_t key, std::vector<uint8_t> value) {
  void* mem = ::operator new(sizeof(SkipNode) +
                             static_cast<size_t>(height) * sizeof(SkipNode*));
  auto* n = new (mem) SkipNode{key, std::move(value)};
  for (int i = 0; i < height; ++i) new (n->next() + i) SkipNode*(nullptr);
  return n;
}

void delete_node(SkipNode* n) {
  n->~SkipNode();
  ::operator delete(n);
}

}  // namespace

SkipList::SkipList(uint64_t seed)
    : head_(new_node(kMaxLevel, 0, {})), rng_state_(seed | 1) {}

SkipList::~SkipList() {
  if (head_ == nullptr) return;
  clear();
  delete_node(head_);
}

SkipList::SkipList(SkipList&& o) noexcept
    : head_(o.head_), level_(o.level_), size_(o.size_),
      rng_state_(o.rng_state_) {
  o.head_ = nullptr;
  o.size_ = 0;
}

SkipList& SkipList::operator=(SkipList&& o) noexcept {
  if (this == &o) return *this;
  if (head_ != nullptr) {
    clear();
    delete_node(head_);
  }
  head_ = o.head_;
  level_ = o.level_;
  size_ = o.size_;
  rng_state_ = o.rng_state_;
  o.head_ = nullptr;
  o.size_ = 0;
  return *this;
}

void SkipList::clear() {
  SkipNode* n = head_->next()[0];
  while (n != nullptr) {
    SkipNode* d = n;
    n = n->next()[0];
    delete_node(d);
  }
  std::fill_n(head_->next(), kMaxLevel, nullptr);
  level_ = 1;
  size_ = 0;
}

int SkipList::random_level() {
  // Geometric with p = 1/4 (xorshift64).
  int lvl = 1;
  while (lvl < kMaxLevel) {
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    if ((rng_state_ & 3) != 0) break;
    ++lvl;
  }
  return lvl;
}

bool SkipList::insert(uint64_t key, std::vector<uint8_t> value) {
  SkipNode* update[kMaxLevel];
  SkipNode* x = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (x->next()[i] != nullptr && x->next()[i]->key < key) {
      x = x->next()[i];
    }
    update[i] = x;
  }
  SkipNode* cand = x->next()[0];
  if (cand != nullptr && cand->key == key) {
    cand->value = std::move(value);
    return false;
  }
  const int lvl = random_level();
  if (lvl > level_) {
    for (int i = level_; i < lvl; ++i) update[i] = head_;
    level_ = lvl;
  }
  SkipNode* node = new_node(lvl, key, std::move(value));
  for (int i = 0; i < lvl; ++i) {
    node->next()[i] = update[i]->next()[i];
    update[i]->next()[i] = node;
  }
  ++size_;
  return true;
}

const std::vector<uint8_t>* SkipList::find(uint64_t key) const {
  const SkipNode* x = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (x->next()[i] != nullptr && x->next()[i]->key < key) {
      x = x->next()[i];
    }
  }
  const SkipNode* cand = x->next()[0];
  if (cand != nullptr && cand->key == key) return &cand->value;
  return nullptr;
}

bool SkipList::erase(uint64_t key) {
  SkipNode* update[kMaxLevel];
  SkipNode* x = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (x->next()[i] != nullptr && x->next()[i]->key < key) {
      x = x->next()[i];
    }
    update[i] = x;
  }
  SkipNode* cand = x->next()[0];
  if (cand == nullptr || cand->key != key) return false;
  for (int i = 0; i < level_; ++i) {
    if (update[i]->next()[i] == cand) update[i]->next()[i] = cand->next()[i];
  }
  delete_node(cand);
  while (level_ > 1 && head_->next()[level_ - 1] == nullptr) {
    --level_;
  }
  --size_;
  return true;
}

uint64_t SkipList::Iterator::key() const { return node_->key; }

const std::vector<uint8_t>& SkipList::Iterator::value() const {
  return node_->value;
}

void SkipList::Iterator::next() { node_ = node_->next()[0]; }

SkipList::Iterator SkipList::seek(uint64_t from) const {
  const SkipNode* x = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (x->next()[i] != nullptr && x->next()[i]->key < from) {
      x = x->next()[i];
    }
  }
  return Iterator(x->next()[0]);
}

SkipList::Iterator SkipList::begin() const {
  return Iterator(head_->next()[0]);
}

void SkipList::copy_from(const SkipList& other) {
  clear();
  for (Iterator it = other.begin(); it.valid(); it.next()) {
    insert(it.key(), it.value());
  }
}

}  // namespace hyperloop::apps
