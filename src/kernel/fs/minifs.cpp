#include "kernel/fs/minifs.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "hw/devices/disk.hpp"
#include "kernel/costs.hpp"
#include "kernel/kernel.hpp"
#include "util/assert.hpp"

namespace mercury::kernel {

namespace {
constexpr std::size_t kBlockSize = hw::Disk::kBlockSize;

// Scratch buffer for device transfers (content is not semantically used).
std::array<std::uint8_t, kBlockSize>& scratch() {
  static std::array<std::uint8_t, kBlockSize> buf{};
  return buf;
}
}  // namespace

MiniFs::MiniFs(Kernel& kernel, std::size_t cache_blocks)
    : kernel_(kernel), cache_(cache_blocks) {
  dirs_.insert("/");
}

void MiniFs::charge_path(hw::Cpu& cpu, const std::string& path) {
  std::size_t components = 1;
  for (char ch : path)
    if (ch == '/') ++components;
  cpu.charge(costs::kPathLookupPerComponent * components);
}

std::uint64_t MiniFs::alloc_block() {
  if (!free_blocks_.empty()) {
    const std::uint64_t b = free_blocks_.back();
    free_blocks_.pop_back();
    return b;
  }
  return next_block_++;
}

std::int32_t MiniFs::open(hw::Cpu& cpu, const std::string& path, bool create) {
  ++stats_.opens;
  charge_path(cpu, path);
  auto it = paths_.find(path);
  if (it != paths_.end()) return it->second;
  if (!create) return -1;

  ++stats_.creates;
  cpu.charge(costs::kInodeOp);
  auto ino = std::make_unique<Inode>();
  ino->id = static_cast<std::int32_t>(inodes_.size());
  const std::int32_t id = ino->id;
  inodes_.push_back(std::move(ino));
  paths_[path] = id;
  // Directory entry update dirties a metadata block.
  cache_.mark_dirty(static_cast<std::uint64_t>(id) % 4096);
  return id;
}

Inode* MiniFs::inode(std::int32_t id) {
  if (id < 0 || static_cast<std::size_t>(id) >= inodes_.size()) return nullptr;
  return inodes_[id].get();
}

std::size_t MiniFs::read(hw::Cpu& cpu, Inode& ino, std::uint64_t off,
                         std::size_t bytes) {
  if (off >= ino.size) return 0;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(bytes, ino.size - off));
  const std::size_t first = static_cast<std::size_t>(off / kBlockSize);
  const std::size_t last = static_cast<std::size_t>((off + n - 1) / kBlockSize);
  for (std::size_t b = first; b <= last && b < ino.blocks.size(); ++b) {
    const std::uint64_t dev_block = ino.blocks[b];
    cpu.charge(costs::kBlockCacheLookup);
    if (!cache_.lookup(dev_block)) {
      kernel_.ops().disk_read(cpu, dev_block, scratch());
      cache_.insert(dev_block, false);
      writeback_blocks(cpu, cache_.evict_to_capacity());
    }
  }
  cpu.charge((costs::kBufferCopyPerKb + kernel_.ops().copy_tax_per_kb()) *
             ((n + 1023) / 1024));
  stats_.bytes_read += n;
  return n;
}

std::size_t MiniFs::write(hw::Cpu& cpu, Inode& ino, std::uint64_t off,
                          std::size_t bytes) {
  MERC_CHECK(bytes > 0);
  const std::uint64_t end = off + bytes;
  // Grow the block list as needed.
  const std::size_t need_blocks =
      static_cast<std::size_t>((end + kBlockSize - 1) / kBlockSize);
  while (ino.blocks.size() < need_blocks) {
    cpu.charge(costs::kInodeOp / 3);  // block allocation + bitmap update
    ino.blocks.push_back(alloc_block());
  }
  const std::size_t first = static_cast<std::size_t>(off / kBlockSize);
  const std::size_t last = static_cast<std::size_t>((end - 1) / kBlockSize);
  for (std::size_t b = first; b <= last; ++b) {
    const std::uint64_t dev_block = ino.blocks[b];
    cpu.charge(costs::kBlockCacheLookup);
    const bool partial_head =
        b == first && off % kBlockSize != 0 && off < ino.size;
    if (partial_head && !cache_.lookup(dev_block)) {
      // Read-modify-write of an existing partial block.
      kernel_.ops().disk_read(cpu, dev_block, scratch());
      cache_.insert(dev_block, false);
    }
    cache_.mark_dirty(dev_block);
    writeback_blocks(cpu, cache_.evict_to_capacity());
  }
  ino.size = std::max(ino.size, end);
  cpu.charge((costs::kBufferCopyPerKb + kernel_.ops().copy_tax_per_kb()) *
             ((bytes + 1023) / 1024));
  stats_.bytes_written += bytes;
  return bytes;
}

void MiniFs::writeback_blocks(hw::Cpu& cpu,
                              std::vector<std::uint64_t> blocks) {
  // Elevator: issue in ascending block order to minimize positioning.
  std::sort(blocks.begin(), blocks.end());
  for (const std::uint64_t b : blocks)
    kernel_.ops().disk_write(cpu, b, scratch());
}

void MiniFs::fsync(hw::Cpu& cpu, Inode& ino) {
  ++stats_.fsyncs;
  std::vector<std::uint64_t> dirty;
  for (const std::uint64_t b : ino.blocks) {
    if (cache_.is_dirty(b)) {
      cache_.clear_dirty(b);
      dirty.push_back(b);
    }
  }
  writeback_blocks(cpu, std::move(dirty));
  kernel_.ops().disk_flush(cpu);
}

bool MiniFs::unlink(hw::Cpu& cpu, const std::string& path) {
  ++stats_.unlinks;
  charge_path(cpu, path);
  auto it = paths_.find(path);
  if (it == paths_.end()) return false;
  cpu.charge(costs::kInodeOp);
  Inode* ino = inode(it->second);
  for (const std::uint64_t b : ino->blocks) {
    cache_.invalidate(b);
    free_blocks_.push_back(b);
  }
  // Release the list's storage, not just empty it: the inode (its id picks
  // a metadata block) lives as long as the kernel.
  std::vector<std::uint64_t>().swap(ino->blocks);
  ino->size = 0;
  paths_.erase(it);
  return true;
}

bool MiniFs::mkdir(hw::Cpu& cpu, const std::string& path) {
  charge_path(cpu, path);
  cpu.charge(costs::kInodeOp);
  return dirs_.insert(path).second;
}

bool MiniFs::exists(hw::Cpu& cpu, const std::string& path) {
  charge_path(cpu, path);
  return paths_.contains(path) || dirs_.contains(path);
}

std::int64_t MiniFs::size_of(hw::Cpu& cpu, const std::string& path) {
  charge_path(cpu, path);
  auto it = paths_.find(path);
  if (it == paths_.end()) return -1;
  return static_cast<std::int64_t>(inode(it->second)->size);
}

void MiniFs::writeback_some(hw::Cpu& cpu, std::size_t max_blocks) {
  writeback_blocks(cpu, cache_.take_dirty(max_blocks));
}

}  // namespace mercury::kernel
