// A small ext3-flavoured filesystem: path table, inodes with block lists,
// write-back buffer cache, fsync barriers. All device traffic goes through
// the kernel's sensitive-ops object (native driver vs split frontend).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hw/cpu.hpp"
#include "kernel/fs/block_cache.hpp"

namespace mercury::kernel {

class Kernel;

struct Inode {
  std::int32_t id = -1;
  std::uint64_t size = 0;
  std::vector<std::uint64_t> blocks;
};

struct FsStats {
  std::uint64_t opens = 0;
  std::uint64_t creates = 0;
  std::uint64_t unlinks = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t fsyncs = 0;
};

class MiniFs {
 public:
  MiniFs(Kernel& kernel, std::size_t cache_blocks = 16384);  // 64 MB cache

  /// Open or create; returns inode id, or -1 if absent and !create.
  std::int32_t open(hw::Cpu& cpu, const std::string& path, bool create);
  Inode* inode(std::int32_t id);

  std::size_t read(hw::Cpu& cpu, Inode& ino, std::uint64_t off, std::size_t bytes);
  std::size_t write(hw::Cpu& cpu, Inode& ino, std::uint64_t off, std::size_t bytes);
  void fsync(hw::Cpu& cpu, Inode& ino);
  bool unlink(hw::Cpu& cpu, const std::string& path);
  bool mkdir(hw::Cpu& cpu, const std::string& path);
  bool exists(hw::Cpu& cpu, const std::string& path);
  std::int64_t size_of(hw::Cpu& cpu, const std::string& path);

  /// Periodic flusher (pdflush): write back up to `max_blocks` dirty blocks.
  void writeback_some(hw::Cpu& cpu, std::size_t max_blocks);

  BlockCache& cache() { return cache_; }
  const FsStats& stats() const { return stats_; }

 private:
  void charge_path(hw::Cpu& cpu, const std::string& path);
  std::uint64_t alloc_block();
  void writeback_blocks(hw::Cpu& cpu, std::vector<std::uint64_t> blocks);

  Kernel& kernel_;
  BlockCache cache_;
  std::map<std::string, std::int32_t> paths_;
  std::vector<std::unique_ptr<Inode>> inodes_;
  std::set<std::string> dirs_;
  std::vector<std::uint64_t> free_blocks_;
  std::uint64_t next_block_ = 4096;  // blocks below this: superblock/inode area
  FsStats stats_;
};

}  // namespace mercury::kernel
