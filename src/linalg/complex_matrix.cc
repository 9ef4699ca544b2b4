#include "linalg/complex_matrix.h"

#include <cmath>
#include <sstream>

#include "support/logging.h"

namespace guoq {
namespace linalg {

ComplexMatrix::ComplexMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols)
{
}

ComplexMatrix::ComplexMatrix(
    std::initializer_list<std::initializer_list<Complex>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        if (row.size() != cols_)
            support::panic("ragged initializer for ComplexMatrix");
        for (const auto &v : row)
            data_.push_back(v);
    }
}

ComplexMatrix
ComplexMatrix::identity(std::size_t n)
{
    ComplexMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

ComplexMatrix
ComplexMatrix::fromMatrix2(const Matrix2 &m)
{
    ComplexMatrix out(2, 2);
    for (std::size_t i = 0; i < 4; ++i)
        out.data_[i] = m[i];
    return out;
}

Matrix2
ComplexMatrix::toMatrix2() const
{
    if (rows_ != 2 || cols_ != 2)
        support::panic(support::strcat("toMatrix2: matrix is ", rows_, "x",
                                       cols_, ", not 2x2"));
    return {data_[0], data_[1], data_[2], data_[3]};
}

ComplexMatrix
ComplexMatrix::operator*(const ComplexMatrix &rhs) const
{
    if (cols_ != rhs.rows_)
        support::panic(support::strcat("matmul shape mismatch: ", rows_, "x",
                                       cols_, " * ", rhs.rows_, "x",
                                       rhs.cols_));
    ComplexMatrix out(rows_, rhs.cols_);
    matmulAccumulate(data_.data(), rhs.data_.data(), out.data_.data(),
                     rows_, cols_, rhs.cols_);
    return out;
}

ComplexMatrix
ComplexMatrix::operator+(const ComplexMatrix &rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        support::panic("matrix add shape mismatch");
    ComplexMatrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + rhs.data_[i];
    return out;
}

ComplexMatrix
ComplexMatrix::operator-(const ComplexMatrix &rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        support::panic("matrix sub shape mismatch");
    ComplexMatrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - rhs.data_[i];
    return out;
}

ComplexMatrix
ComplexMatrix::scaled(Complex s) const
{
    ComplexMatrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * s;
    return out;
}

ComplexMatrix
ComplexMatrix::dagger() const
{
    ComplexMatrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = std::conj((*this)(r, c));
    return out;
}

ComplexMatrix
ComplexMatrix::kron(const ComplexMatrix &rhs) const
{
    ComplexMatrix out(rows_ * rhs.rows_, cols_ * rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) {
            const Complex a = (*this)(r, c);
            if (a == Complex{})
                continue;
            for (std::size_t rr = 0; rr < rhs.rows_; ++rr)
                for (std::size_t cc = 0; cc < rhs.cols_; ++cc)
                    out(r * rhs.rows_ + rr, c * rhs.cols_ + cc) =
                        a * rhs(rr, cc);
        }
    return out;
}

Complex
ComplexMatrix::trace() const
{
    if (rows_ != cols_)
        support::panic("trace of non-square matrix");
    Complex t = 0;
    for (std::size_t i = 0; i < rows_; ++i)
        t += (*this)(i, i);
    return t;
}

double
ComplexMatrix::frobeniusNorm() const
{
    double s = 0;
    for (const auto &v : data_)
        s += std::norm(v);
    return std::sqrt(s);
}

double
ComplexMatrix::maxAbsDiff(const ComplexMatrix &rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        support::panic("maxAbsDiff shape mismatch");
    double m = 0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(data_[i] - rhs.data_[i]));
    return m;
}

bool
ComplexMatrix::isUnitary(double tol) const
{
    if (rows_ != cols_)
        return false;
    const ComplexMatrix prod = dagger() * (*this);
    return prod.maxAbsDiff(identity(rows_)) <= tol;
}

std::string
ComplexMatrix::toString(int prec) const
{
    std::ostringstream os;
    os.precision(prec);
    os << std::fixed;
    for (std::size_t r = 0; r < rows_; ++r) {
        os << "[ ";
        for (std::size_t c = 0; c < cols_; ++c) {
            const Complex v = (*this)(r, c);
            os << v.real() << (v.imag() < 0 ? "-" : "+")
               << std::abs(v.imag()) << "i ";
        }
        os << "]\n";
    }
    return os.str();
}

} // namespace linalg
} // namespace guoq
