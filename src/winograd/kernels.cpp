#include "winograd/kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/kernel_registry.hpp"
#include "runtime/thread_pool.hpp"
#include "winograd/walk.hpp"

namespace wino::winograd {

using tensor::Tensor4f;

std::size_t fused_block_columns(std::size_t channels, std::size_t tile,
                                std::size_t budget_bytes) {
  // Per column the block holds (C + 1) * n^2 floats: the transformed data
  // bank plus one accumulator lane. Half the budget keeps the V bank and
  // the output tiles of the block resident alongside.
  const std::size_t per_column = (channels + 1) * tile * tile * sizeof(float);
  if (per_column == 0) return 1;
  const std::size_t fit = budget_bytes / (2 * per_column);
  return std::clamp<std::size_t>(fit, 1, kFusedMaxBlockColumns);
}

std::size_t default_block_columns(std::size_t channels, std::size_t tile,
                                  std::size_t columns) {
  const std::size_t block = std::min(
      fused_block_columns(channels, tile, kFusedCacheBudgetBytes), columns);
  return block < kFusedMinBlockColumns ? 1 : block;
}

TileTransformer::TileTransformer(const TransformSet& t)
    : m_(t.m), r_(t.r), n_(t.tile()), bt_(t.bt_f()), g_(t.g_f()),
      at_(t.at_f()) {}

void TileTransformer::sandwich(const FMatrix& mat, std::span<const float> in,
                               std::span<float> out) const {
  const std::size_t rows = mat.rows();
  const std::size_t cols = mat.cols();
  if (in.size() != cols * cols || out.size() != rows * rows) {
    throw std::invalid_argument("sandwich: tile size mismatch");
  }
  // tmp = mat * in  (rows x cols). Tile edges are tiny (n = m + r - 1 <= 6
  // for every supported F(m, r)), so the intermediate lives on the stack —
  // this runs per gathered tile in the conv hot loop, where a heap
  // allocation per call would dominate the arithmetic.
  float stack_buf[64];
  std::vector<float> heap_buf;
  float* tmp;
  if (rows * cols <= std::size(stack_buf)) {
    tmp = stack_buf;
  } else {
    heap_buf.resize(rows * cols);
    tmp = heap_buf.data();
  }
  std::fill(tmp, tmp + rows * cols, 0.0F);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < cols; ++k) {
      const float a = mat(i, k);
      if (a == 0.0F) continue;
      for (std::size_t j = 0; j < cols; ++j) {
        tmp[i * cols + j] += a * in[k * cols + j];
      }
    }
  }
  // out = tmp * mat^T (rows x rows)
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < rows; ++j) {
      float acc = 0.0F;
      for (std::size_t k = 0; k < cols; ++k) {
        acc += tmp[i * cols + k] * mat(j, k);
      }
      out[i * rows + j] = acc;
    }
  }
}

void TileTransformer::transform_filter(std::span<const float> g,
                                       std::span<float> v) const {
  sandwich(g_, g, v);
}

void TileTransformer::transform_data(std::span<const float> d,
                                     std::span<float> u) const {
  sandwich(bt_, d, u);
}

void TileTransformer::inverse(std::span<const float> mm,
                              std::span<float> y) const {
  sandwich(at_, mm, y);
}

namespace {

const TileKernels& active_tiles() {
  static constexpr const TileKernels* kSets[] =
      WINO_KERNEL_TABLES(kTileKernels);
  return runtime::active_table(kSets);
}

}  // namespace

void TileTransformer::sandwich_lanes(const FMatrix& mat, float* io,
                                     std::size_t lanes, std::size_t stride,
                                     float* tile) const {
  if (active_tiles().lanes(&mat(0, 0), mat.rows(), mat.cols(), io, lanes,
                           stride)) {
    return;
  }
  const std::size_t in_size = mat.cols() * mat.cols();
  const std::size_t out_size = mat.rows() * mat.rows();
  for (std::size_t t = 0; t < lanes; ++t) {
    for (std::size_t e = 0; e < in_size; ++e) tile[e] = io[e * stride + t];
    sandwich(mat, {tile, in_size}, {tile, out_size});
    for (std::size_t e = 0; e < out_size; ++e) io[e * stride + t] = tile[e];
  }
}

void TileTransformer::transform_data_tile(const float* d, float* u) const {
  const auto nsq = static_cast<std::size_t>(n_ * n_);
  if (!active_tiles().tile(&bt_(0, 0), bt_.rows(), bt_.cols(), d, u)) {
    sandwich(bt_, {d, nsq}, {u, nsq});
  }
}

void TileTransformer::inverse_tile(const float* mm, float* y) const {
  if (!active_tiles().tile(&at_(0, 0), at_.rows(), at_.cols(), mm, y)) {
    sandwich(at_, {mm, static_cast<std::size_t>(n_ * n_)},
             {y, static_cast<std::size_t>(m_ * m_)});
  }
}

void TileTransformer::transform_data_lanes(float* bank, std::size_t lanes,
                                           std::size_t stride,
                                           float* tile) const {
  sandwich_lanes(bt_, bank, lanes, stride, tile);
}

void TileTransformer::inverse_lanes(float* acc, std::size_t lanes,
                                    std::size_t stride, float* tile) const {
  sandwich_lanes(at_, acc, lanes, stride, tile);
}

void TileTransformer::convolve_tile(std::span<const float> d,
                                    std::span<const float> g,
                                    std::span<float> y) const {
  const auto nsq = static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  std::vector<float> u(nsq);
  std::vector<float> v(nsq);
  transform_data(d, u);
  transform_filter(g, v);
  for (std::size_t i = 0; i < nsq; ++i) u[i] *= v[i];
  inverse(u, y);
}

void TileTransformer::convolve_1d(std::span<const float> d,
                                  std::span<const float> g,
                                  std::span<float> y) const {
  const auto n = static_cast<std::size_t>(n_);
  if (d.size() != n || g.size() != static_cast<std::size_t>(r_) ||
      y.size() != static_cast<std::size_t>(m_)) {
    throw std::invalid_argument("convolve_1d: size mismatch");
  }
  std::vector<float> u(n, 0.0F);
  std::vector<float> v(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) u[i] += bt_(i, j) * d[j];
    for (std::size_t j = 0; j < g.size(); ++j) v[i] += g_(i, j) * g[j];
    u[i] *= v[i];
  }
  for (std::size_t k = 0; k < y.size(); ++k) {
    float acc = 0.0F;
    for (std::size_t i = 0; i < n; ++i) acc += at_(k, i) * u[i];
    y[k] = acc;
  }
}

TransformedKernels::TransformedKernels(const TileTransformer& xf,
                                       const Tensor4f& kernels)
    : kernels_(kernels.shape().n), channels_(kernels.shape().c),
      tile_sq_(static_cast<std::size_t>(xf.tile()) *
               static_cast<std::size_t>(xf.tile())) {
  const auto r = static_cast<std::size_t>(xf.r());
  if (kernels.shape().h != r || kernels.shape().w != r) {
    throw std::invalid_argument("TransformedKernels: kernel size != r x r");
  }
  data_.resize(kernels_ * channels_ * tile_sq_);
  std::vector<float> g(r * r);
  for (std::size_t k = 0; k < kernels_; ++k) {
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t u = 0; u < r; ++u) {
        for (std::size_t v = 0; v < r; ++v) g[u * r + v] = kernels(k, c, u, v);
      }
      xf.transform_filter(
          g, {data_.data() + (k * channels_ + c) * tile_sq_, tile_sq_});
    }
  }
}

Tensor4f conv2d_winograd(const Tensor4f& input, const Tensor4f& kernels,
                         int m, const WinogradConvOptions& opt) {
  const TileTransformer xf(
      transforms(m, static_cast<int>(kernels.shape().h)));
  return conv2d_winograd(input, kernels, xf, opt);
}

Tensor4f conv2d_winograd(const Tensor4f& input, const Tensor4f& kernels,
                         const TileTransformer& xf,
                         const WinogradConvOptions& opt) {
  const auto& ks = kernels.shape();
  const auto r = static_cast<std::size_t>(xf.r());
  if (ks.h != r || ks.w != r) {
    throw std::invalid_argument("conv2d_winograd: kernel shape mismatch");
  }
  const TransformedKernels tk(xf, kernels);
  return conv2d_winograd(input, tk, xf, opt);
}

Tensor4f conv2d_winograd(const Tensor4f& input, const TransformedKernels& tk,
                         const TileTransformer& xf,
                         const WinogradConvOptions& opt) {
  const auto& is = input.shape();
  const std::size_t kernel_count = tk.kernel_count();
  const auto r = static_cast<std::size_t>(xf.r());
  const auto tile = static_cast<std::size_t>(xf.tile());
  if (tk.tile_area() != tile * tile) {
    throw std::invalid_argument(
        "conv2d_winograd: kernel bank was transformed for a different tile");
  }
  if (tk.channels() != is.c) {
    throw std::invalid_argument("conv2d_winograd: channel mismatch");
  }
  const int pad = opt.pad;
  const std::ptrdiff_t oh =
      static_cast<std::ptrdiff_t>(is.h) + 2 * pad - static_cast<std::ptrdiff_t>(r) + 1;
  const std::ptrdiff_t ow =
      static_cast<std::ptrdiff_t>(is.w) + 2 * pad - static_cast<std::ptrdiff_t>(r) + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d_winograd: output would be empty");
  }
  const auto out_h = static_cast<std::size_t>(oh);
  const auto out_w = static_cast<std::size_t>(ow);

  const auto mm = static_cast<std::size_t>(xf.m());
  const auto n = static_cast<std::size_t>(xf.tile());
  const std::size_t nsq = n * n;
  const std::size_t tiles_h = (out_h + mm - 1) / mm;
  const std::size_t tiles_w = (out_w + mm - 1) / mm;

  Tensor4f out(is.n, kernel_count, out_h, out_w);

  std::vector<float> d(nsq);
  // Data transforms for all channels of the current tile, computed once
  // and shared across the K kernels — the software mirror of the paper's
  // first hardware contribution (Section IV-E): U is independent of k, so
  // recomputing it per kernel (as [3]'s PEs do) is redundant.
  std::vector<float> u_all(is.c * nsq);
  std::vector<float> prod(nsq);
  std::vector<float> acc_m(nsq);
  std::vector<float> y(mm * mm);
  std::vector<float> acc_y(mm * mm);

  for (std::size_t img = 0; img < is.n; ++img) {
    for (std::size_t th = 0; th < tiles_h; ++th) {
      for (std::size_t tw = 0; tw < tiles_w; ++tw) {
        const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(th * mm) - pad;
        const std::ptrdiff_t x0 = static_cast<std::ptrdiff_t>(tw * mm) - pad;

        for (std::size_t c = 0; c < is.c; ++c) {
          // Gather the (possibly padded) input tile.
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              d[i * n + j] =
                  input.padded(img, c, y0 + static_cast<std::ptrdiff_t>(i),
                               x0 + static_cast<std::ptrdiff_t>(j));
            }
          }
          xf.transform_data(d, {u_all.data() + c * nsq, nsq});
        }

        for (std::size_t k = 0; k < kernel_count; ++k) {
          std::fill(acc_m.begin(), acc_m.end(), 0.0F);
          std::fill(acc_y.begin(), acc_y.end(), 0.0F);
          for (std::size_t c = 0; c < is.c; ++c) {
            const float* u = u_all.data() + c * nsq;
            const auto v = tk.v(k, c);
            if (opt.accumulation == AccumulationOrder::kTransformDomain) {
              for (std::size_t i = 0; i < nsq; ++i) acc_m[i] += u[i] * v[i];
            } else {
              for (std::size_t i = 0; i < nsq; ++i) prod[i] = u[i] * v[i];
              xf.inverse(prod, y);
              for (std::size_t i = 0; i < y.size(); ++i) acc_y[i] += y[i];
            }
          }
          if (opt.accumulation == AccumulationOrder::kTransformDomain) {
            xf.inverse(acc_m, acc_y);
          }

          // Scatter the m x m output tile, clipping the right/bottom edge.
          for (std::size_t i = 0; i < mm; ++i) {
            const std::size_t oy = th * mm + i;
            if (oy >= out_h) break;
            for (std::size_t j = 0; j < mm; ++j) {
              const std::size_t ox = tw * mm + j;
              if (ox >= out_w) break;
              out(img, k, oy, ox) = acc_y[i * mm + j];
            }
          }
        }
      }
    }
  }
  return out;
}

namespace {

/// Validate everything but the scratch and build the walk geometry.
LayoutConv make_layout_conv(const tensor::Layout& il,
                            std::span<const float> in,
                            const TransformedKernels& tk,
                            const TileTransformer& xf,
                            const WinogradConvOptions& opt,
                            const tensor::Layout& ol, std::span<float> out,
                            bool fuse_relu) {
  using tensor::LayoutKind;
  if (il.kind != LayoutKind::kNCHW && il.kind != LayoutKind::kWinogradTile) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: input must be NCHW or Winograd-tile form");
  }
  if (ol.kind != LayoutKind::kNCHW && ol.kind != LayoutKind::kWinogradTile) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output must be NCHW or Winograd-tile form");
  }
  if (in.size() != il.volume()) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: buffer size != layout volume");
  }
  const auto& is = il.shape;
  const auto r = static_cast<std::size_t>(xf.r());
  const auto tile = static_cast<std::size_t>(xf.tile());
  if (tk.tile_area() != tile * tile) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: kernel bank transformed for another tile");
  }
  if (tk.channels() != is.c) {
    throw std::invalid_argument("conv2d_winograd_layout: channel mismatch");
  }
  const int pad = opt.pad;
  const std::ptrdiff_t oh = static_cast<std::ptrdiff_t>(is.h) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  const std::ptrdiff_t ow = static_cast<std::ptrdiff_t>(is.w) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output would be empty");
  }

  LayoutConv g;
  g.src = in.data();
  g.dst = out.data();
  g.tk = &tk;
  g.xf = &xf;
  g.ol = ol;
  g.fuse_relu = fuse_relu;
  g.pad = pad;
  g.channels = is.c;
  g.kernel_count = tk.kernel_count();
  g.in_n = is.n;
  g.in_h = is.h;
  g.in_w = is.w;
  g.out_h = static_cast<std::size_t>(oh);
  g.out_w = static_cast<std::size_t>(ow);
  g.mm = static_cast<std::size_t>(xf.m());
  g.n = tile;
  g.nsq = tile * tile;
  g.tiles_h = (g.out_h + g.mm - 1) / g.mm;
  g.tiles_w = (g.out_w + g.mm - 1) / g.mm;
  g.in_tiled = il.kind == LayoutKind::kWinogradTile;
  g.out_tiled = ol.kind == LayoutKind::kWinogradTile;
  g.in_tm = g.in_tiled ? il.tile_m : 1;  // unused for NCHW
  g.in_th_n = g.in_tiled ? il.tiles_h() : 0;
  g.in_tw_n = g.in_tiled ? il.tiles_w() : 0;
  g.in_tmsq = g.in_tm * g.in_tm;

  const tensor::Shape4 out_shape{is.n, g.kernel_count, g.out_h, g.out_w};
  if (!(ol.shape == out_shape) || (g.out_tiled && ol.tile_m != g.mm)) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output layout does not match this conv");
  }
  if (out.size() != ol.volume()) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output buffer size != layout volume");
  }
  return g;
}

/// Validate the scratch against the geometry; returns its block size B.
std::size_t validate_scratch(const LayoutConv& g, const WinogradScratch& s) {
  const std::size_t nsq = g.nsq;
  const std::size_t mm = g.mm;
  const std::size_t block = s.acc_blk.size() / nsq;
  if (block == 0 || s.acc_blk.size() != block * nsq ||
      s.u_blk.size() != g.channels * nsq * block ||
      s.acc_m.size() != nsq || s.acc_y.size() != mm * mm ||
      s.row_tile.size() != g.n || s.row_in.size() != g.n ||
      s.col_off.size() != g.n) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: scratch size mismatch");
  }
  return block;
}

const WalkKernels& active_walk() {
  static constexpr const WalkKernels* kSets[] =
      WINO_KERNEL_TABLES(kWalkKernels);
  return runtime::active_table(kSets);
}

/// Heap-backed scratch for the allocating wrapper (one per worker chunk).
struct OwnedScratch {
  std::vector<float> f;
  std::vector<std::size_t> idx;
  WinogradScratch s;
};

OwnedScratch make_owned_scratch(std::size_t channels, std::size_t n,
                                std::size_t mm, std::size_t block) {
  const std::size_t nsq = n * n;
  OwnedScratch o;
  o.f.resize((channels + 1) * nsq * block + nsq + mm * mm);
  o.idx.resize(3 * n);
  float* f = o.f.data();
  const auto take = [&f](std::size_t count) {
    const std::span<float> span{f, count};
    f += count;
    return span;
  };
  o.s.u_blk = take(channels * nsq * block);
  o.s.acc_blk = take(nsq * block);
  o.s.acc_m = take(nsq);
  o.s.acc_y = take(mm * mm);
  o.s.row_tile = {o.idx.data(), n};
  o.s.row_in = {o.idx.data() + n, n};
  o.s.col_off = {o.idx.data() + 2 * n, n};
  return o;
}

}  // namespace

void conv2d_winograd_layout_into(const tensor::Layout& il,
                                 std::span<const float> in,
                                 const TransformedKernels& tk,
                                 const TileTransformer& xf,
                                 const WinogradConvOptions& opt,
                                 const tensor::Layout& ol,
                                 std::span<float> out, bool fuse_relu,
                                 const WinogradScratch& scratch) {
  const LayoutConv g =
      make_layout_conv(il, in, tk, xf, opt, ol, out, fuse_relu);
  const std::size_t block = validate_scratch(g, scratch);
  active_walk().walk_columns(g, scratch, opt.accumulation, block, 0,
                             g.columns());
}

tensor::PackedActivation conv2d_winograd_layout(
    const tensor::PackedActivation& input, const TransformedKernels& tk,
    const TileTransformer& xf, const WinogradConvOptions& opt,
    tensor::LayoutKind out_kind, bool fuse_relu) {
  using tensor::Layout;
  using tensor::LayoutKind;
  if (out_kind != LayoutKind::kNCHW &&
      out_kind != LayoutKind::kWinogradTile) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output must be NCHW or Winograd-tile form");
  }
  const Layout& il = input.layout;
  const auto& is = il.shape;
  const auto r = static_cast<std::size_t>(xf.r());
  const int pad = opt.pad;
  const std::ptrdiff_t oh = static_cast<std::ptrdiff_t>(is.h) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  const std::ptrdiff_t ow = static_cast<std::ptrdiff_t>(is.w) + 2 * pad -
                            static_cast<std::ptrdiff_t>(r) + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d_winograd_layout: output would be empty");
  }
  const auto mm = static_cast<std::size_t>(xf.m());
  const tensor::Shape4 out_shape{is.n, tk.kernel_count(),
                                 static_cast<std::size_t>(oh),
                                 static_cast<std::size_t>(ow)};
  const Layout ol = out_kind == LayoutKind::kNCHW
                        ? Layout::nchw(out_shape)
                        : Layout::winograd_tile(out_shape, mm);
  tensor::PackedActivation out{ol, std::vector<float>(ol.volume())};

  const LayoutConv g =
      make_layout_conv(il, input.data, tk, xf, opt, ol, out.data, fuse_relu);
  const auto n = static_cast<std::size_t>(xf.tile());

  // The block loop is what the ThreadPool splits — every worker chunk owns
  // a private scratch and a contiguous column range, and per-column
  // arithmetic is independent of both the chunking and the block
  // boundaries, so any thread count produces the same bytes.
  const std::size_t block = default_block_columns(is.c, n, g.columns());
  const WalkKernels& walk = active_walk();
  runtime::parallel_for(g.columns(), [&](std::size_t begin, std::size_t end) {
    const OwnedScratch o = make_owned_scratch(is.c, n, mm, block);
    walk.walk_columns(g, o.s, opt.accumulation, block, begin, end);
  });
  return out;
}

}  // namespace wino::winograd
