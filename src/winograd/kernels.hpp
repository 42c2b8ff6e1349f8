// Runtime Winograd convolution kernels (float): 1-D F(m, r), 2-D nested
// F(m x m, r x r) tile operations, and full NCHW layer convolution.
//
// Layer-level evaluation mirrors the paper's system (Fig 7): the image is
// decomposed into overlapping (m+r-1)^2 tiles with stride m, kernels are
// pre-transformed once (V = G g G^T, Section IV "filter transforms are
// assumed to be precomputed"), and channel accumulation happens either in
// the transform domain (software-optimal, one inverse per output tile) or
// after the inverse transform (matching the hardware's accumulation
// buffers). Both orders are exposed because their equivalence is a linearity
// property the test suite checks.
#pragma once

#include <span>
#include <vector>

#include "tensor/layout.hpp"
#include "tensor/tensor.hpp"
#include "winograd/cook_toom.hpp"

namespace wino::winograd {

/// Per-core cache budget in bytes, shared by the fused tile-block sizing
/// here and nn's cache-aware sub-batch split (plan_subbatch in
/// nn/forward.cpp): roughly one L2 slice. One constant so the two
/// locality decisions — how many images walk the stack together and how
/// many tile columns a fused block spans — can never drift apart.
inline constexpr std::size_t kFusedCacheBudgetBytes = 768u << 10;

/// Number of tile columns per fused block for a layer with `channels`
/// input channels and tile edge `tile`, sized so the block's transformed
/// data bank plus its accumulators occupy at most half of `budget_bytes`
/// (the other half is left to the V bank and the output working set),
/// clamped to kFusedMaxBlockColumns. Never returns 0.
[[nodiscard]] std::size_t fused_block_columns(std::size_t channels,
                                              std::size_t tile,
                                              std::size_t budget_bytes);

/// Widest block worth fusing: two column register tiles. The blocked bank
/// is re-streamed once per (kernel, position) pair, so its payoff is
/// amortising transform work across the register tile — not raw width.
/// Past ~2 tiles the bank starts spilling the L1 slice that the
/// per-position GEMM re-reads K times and throughput decays, worst for
/// shallow layers where the cache-budget formula alone would pick very
/// wide blocks (measured in bench/fused_pipeline.cpp: C = 8 columns at
/// B = 64 run ~15% slower than at B = 16). fused_block_columns clamps to
/// this, so wrapper, planner, and bench inherit one ceiling.
inline constexpr std::size_t kFusedMaxBlockColumns = 16;

/// Narrowest multi-column block worth walking: the width of the coordinate
/// GEMM's column register tile. Columns outside a full register tile take
/// the per-position tail loop, which is unit-stride only at B = 1, so a
/// block with no full tile runs slower than B = 1 (measured in
/// bench/fused_pipeline.cpp). The memory planner therefore picks B = 1 or
/// a multiple of this, and default_block_columns B = 1 or B >= this; the
/// walks run any block that cannot fill one register tile (a call over
/// fewer columns, or a call's last columns) at B = 1 in the same scratch.
/// conv2d_winograd_layout_into accepts any B >= 1 — correctness does not
/// depend on the width, only speed does.
inline constexpr std::size_t kFusedMinBlockColumns = 8;

/// Block size for a walk over `columns` tile columns that no memory plan
/// sized (the allocating wrappers): fused_block_columns' cache-budget
/// width capped by the column supply, or 1 when that leaves no full
/// register tile (see kFusedMinBlockColumns).
[[nodiscard]] std::size_t default_block_columns(std::size_t channels,
                                                std::size_t tile,
                                                std::size_t columns);

/// Where the reduction over input channels is performed.
enum class AccumulationOrder {
  kTransformDomain,  ///< sum U_c . V_c over c, single inverse per tile
  kPostInverse       ///< inverse per channel, sum outputs (paper's Fig 7)
};

/// Precompiled float-domain tile transformer for one F(m x m, r x r).
/// Stateless after construction; safe to share across threads for reads.
class TileTransformer {
 public:
  explicit TileTransformer(const TransformSet& t);

  [[nodiscard]] int m() const { return m_; }
  [[nodiscard]] int r() const { return r_; }
  [[nodiscard]] int tile() const { return n_; }

  /// V = G g G^T. g: r*r row-major, v: n*n row-major.
  void transform_filter(std::span<const float> g, std::span<float> v) const;

  /// U = B^T d B. d: n*n row-major, u: n*n.
  void transform_data(std::span<const float> d, std::span<float> u) const;

  /// Y = A^T M A. mm: n*n, y: m*m.
  void inverse(std::span<const float> mm, std::span<float> y) const;

  // The tile walks' transforms (src/winograd/tile_transforms.cpp, run on
  // the active kernel set). Per element each computes transform_data /
  // inverse bit for bit: the same float operations in the same order (the
  // first product skips zero coefficients, the second keeps them and their
  // operand order), so NaN and Inf propagate exactly as there. The tiles
  // of F(2,3), F(3,3) and F(4,3) (n = 4, 5, 6) run kernels of fixed
  // extents; any other shape runs sandwich itself.

  /// U = B^T d B of one tile. d and u hold n*n floats and may alias.
  void transform_data_tile(const float* d, float* u) const;

  /// Y = A^T M A of one tile. mm holds n*n floats, y m*m; they may alias.
  void inverse_tile(const float* mm, float* y) const;

  /// U = B^T d B of `lanes` tiles at once, in place: element e of tile t
  /// lives at bank[e * stride + t] (lanes <= stride), and the result
  /// replaces it in the same layout. `tile` is n*n floats of staging for
  /// shapes without a fixed-extent kernel.
  void transform_data_lanes(float* bank, std::size_t lanes,
                            std::size_t stride, float* tile) const;

  /// Y = A^T M A of `lanes` tiles at once, in place: M is read from
  /// acc[e * stride + t] (n*n elements per tile) and Y (m*m elements)
  /// written over it in the same layout. `tile` as in
  /// transform_data_lanes.
  void inverse_lanes(float* acc, std::size_t lanes, std::size_t stride,
                     float* tile) const;

  /// Full tile convolution Y = A^T[(G g G^T) . (B^T d B)]A.
  void convolve_tile(std::span<const float> d, std::span<const float> g,
                     std::span<float> y) const;

  /// 1-D convolution y = A^T[(G g) . (B^T d)]; d has n elements, g has r,
  /// y has m.
  void convolve_1d(std::span<const float> d, std::span<const float> g,
                   std::span<float> y) const;

  /// The float inverse-transform matrix A^T (m rows x n cols). Exposed so
  /// consumers can batch many inverse transforms Y = A^T M A as two dense
  /// GEMMs on the shared runtime core (see hw/winograd_engine.cpp).
  [[nodiscard]] const FMatrix& at_matrix() const { return at_; }

 private:
  // Apply `mat` (rows x cols) along rows then columns of a square tile:
  // out = mat * in * mat^T, in: cols x cols, out: rows x rows.
  void sandwich(const FMatrix& mat, std::span<const float> in,
                std::span<float> out) const;

  // sandwich over `lanes` interleaved tiles (layout as in
  // transform_data_lanes) on the active set's fixed-extent kernel, or one
  // lane at a time through `tile` (cols^2 floats) for other shapes.
  void sandwich_lanes(const FMatrix& mat, float* io, std::size_t lanes,
                      std::size_t stride, float* tile) const;

  int m_ = 0;
  int r_ = 0;
  int n_ = 0;
  FMatrix bt_;
  FMatrix g_;
  FMatrix at_;
};

/// Options for layer-level Winograd convolution.
struct WinogradConvOptions {
  int pad = 0;  ///< symmetric zero padding (VGG uses pad = 1 for r = 3)
  AccumulationOrder accumulation = AccumulationOrder::kTransformDomain;
};

/// Pre-transformed kernel bank: V tiles for K x C kernels, each n*n floats,
/// laid out [k][c][n*n] contiguously.
class TransformedKernels {
 public:
  TransformedKernels(const TileTransformer& xf,
                     const tensor::Tensor4f& kernels);

  [[nodiscard]] std::span<const float> v(std::size_t k, std::size_t c) const {
    return {data_.data() + (k * channels_ + c) * tile_sq_, tile_sq_};
  }
  [[nodiscard]] std::size_t kernel_count() const { return kernels_; }
  [[nodiscard]] std::size_t channels() const { return channels_; }
  /// Floats per transformed tile, (m+r-1)^2 for the transformer that
  /// built this bank; consumers validate it against their own transformer.
  [[nodiscard]] std::size_t tile_area() const { return tile_sq_; }

 private:
  std::size_t kernels_ = 0;
  std::size_t channels_ = 0;
  std::size_t tile_sq_ = 0;
  std::vector<float> data_;  ///< [k][c][n*n]
};

/// Convolve an NCHW input with a KCrr kernel bank using F(m x m, r x r),
/// stride 1. Output spatial size is (H + 2 pad - r + 1) x (W + 2 pad - r + 1).
/// The result is numerically equivalent (up to float rounding) to
/// conv::conv2d_spatial; tests bound the difference.
tensor::Tensor4f conv2d_winograd(const tensor::Tensor4f& input,
                                 const tensor::Tensor4f& kernels, int m,
                                 const WinogradConvOptions& opt = {});

/// As above but with a caller-provided transformer (avoids transform
/// regeneration in inner loops).
tensor::Tensor4f conv2d_winograd(const tensor::Tensor4f& input,
                                 const tensor::Tensor4f& kernels,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt = {});

/// As above with the pre-transformed kernel bank supplied by the caller —
/// the serving path: filter transforms are computed once per (layer,
/// weights version) and reused across forward calls (see the cache in
/// nn/forward.cpp), matching the paper's "filter transforms are assumed
/// to be precomputed".
tensor::Tensor4f conv2d_winograd(const tensor::Tensor4f& input,
                                 const TransformedKernels& tk,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt = {});

/// Layout-aware layer convolution for the nn pipeline: the input may be
/// NCHW or Winograd-tile form (any producer tile edge), and the output is
/// produced directly in `out_kind` (kNCHW, or kWinogradTile with tile edge
/// m) — chains of Winograd layers hand activations tile-to-tile without
/// ever materialising the NCHW intermediate. `fuse_relu` folds the
/// elementwise max(x, 0) into the output scatter, replacing the separate
/// full-tensor ReLU pass.
///
/// Every output element is computed by exactly the arithmetic of
/// conv2d_winograd(input, tk, xf, opt) — the gather reads the same values,
/// the transform/accumulation order is untouched, and ReLU is the same
/// formula applied to the same result — so this path is bit-identical to
/// the always-NCHW path at every element, whatever mix of layouts carries
/// the activations (pinned by tests/nn_forward_test.cpp and
/// tests/tensor_layout_test.cpp).
///
/// This wrapper runs the tile walk with default_block_columns' block size
/// (see WinogradScratch), and threads the *block loop* across the
/// deterministic ThreadPool: each worker owns a private scratch and a
/// contiguous range of tile columns. Every (kernel, column, position)
/// accumulator chain is confined to one column, so the result is
/// bit-identical for any thread count and any block boundary placement
/// (pinned by tests/winograd_fused_test.cpp).
tensor::PackedActivation conv2d_winograd_layout(
    const tensor::PackedActivation& input, const TransformedKernels& tk,
    const TileTransformer& xf, const WinogradConvOptions& opt,
    tensor::LayoutKind out_kind, bool fuse_relu);

/// Caller-provided scratch for conv2d_winograd_layout_into: the transform
/// bank of one block of B tile columns, its accumulators, one staging
/// tile, and the tile-form gather maps. Carved out of a workspace slab by
/// nn::carve_winograd_scratch, which is also the single definition of each
/// span's extent. The block size is B = acc_blk.size() / (n*n) >= 1; at
/// B = 1 the scratch is one column's bank plus one accumulator tile. Tiles
/// are gathered straight into the bank and transformed in place, and the
/// accumulators are inverse-transformed in place: the fixed-shape block
/// transforms stage one register chunk on the stack, so no span grows
/// with B beyond the bank and the accumulators.
struct WinogradScratch {
  std::span<float> u_blk;    ///< [C][n*n][B] gathered, then transformed, data
  std::span<float> acc_blk;  ///< [n*n][B] transform-domain accumulators
  std::span<float> acc_m;    ///< n*n post-inverse product / staging tile
  std::span<float> acc_y;    ///< m*m post-inverse output accumulator
  std::span<std::size_t> row_tile;  ///< tile-form gather: source tile row
  std::span<std::size_t> row_in;    ///< row-within-tile * tile_m
  std::span<std::size_t> col_off;   ///< tile-col * tile_m^2 + col-within
};

/// Allocation-free core of conv2d_winograd_layout: identical arithmetic in
/// the identical order, reading the input from `in` (described by `il`),
/// writing the output into `out` (described by `ol` — kNCHW or
/// kWinogradTile with the transformer's own m), with every intermediate in
/// caller-provided scratch. The plan executor in nn/forward.cpp runs every
/// Winograd conv layer through this against its per-thread workspace;
/// the allocating conv2d_winograd_layout wrapper delegates here, so the
/// two entry points cannot diverge numerically.
///
/// The scratch's block size B (see WinogradScratch) sets how many tile
/// columns share one gather/transform pass; both accumulation orders run
/// at any B >= 1. The walk visits the caller's columns sequentially in
/// B-sized blocks. It deliberately does not spawn its own
/// parallel_for — the hot caller (nn/forward.cpp) already fans out across
/// images above this call with exactly one carved scratch per workspace,
/// so intra-call threading belongs to the allocating wrapper, which owns
/// per-worker scratch.
void conv2d_winograd_layout_into(const tensor::Layout& il,
                                 std::span<const float> in,
                                 const TransformedKernels& tk,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt,
                                 const tensor::Layout& ol,
                                 std::span<float> out, bool fuse_relu,
                                 const WinogradScratch& scratch);

}  // namespace wino::winograd
