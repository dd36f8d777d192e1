//! Minimal 3-vector geometry.
//!
//! 2-D meshes use `z = 0` throughout; "area" of a 2-D face means edge
//! length and "volume" of a 2-D cell means polygon area, the usual FVM
//! convention for planar problems.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point / vector in 3-space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point {
    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point { x, y, z }
    }

    /// 2-D constructor (`z = 0`).
    pub const fn xy(x: f64, y: f64) -> Self {
        Point { x, y, z: 0.0 }
    }

    /// The origin.
    pub const fn zero() -> Self {
        Point::new(0.0, 0.0, 0.0)
    }

    /// Dot product.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Point) -> Point {
        Point::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in this direction. Returns `None` for (near-)zero input.
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Component by axis index (0 = x, 1 = y, 2 = z).
    pub fn component(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("axis {axis} out of range"),
        }
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, o: Point) -> Point {
        Point::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, o: Point) -> Point {
        Point::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, s: f64) -> Point {
        Point::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, s: f64) -> Point {
        Point::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y, -self.z)
    }
}

/// Signed area of a planar polygon given in order (shoelace formula).
/// Positive for counter-clockwise orientation.
pub fn polygon_signed_area(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    let mut acc = 0.0;
    for i in 0..n {
        let a = vertices[i];
        let b = vertices[(i + 1) % n];
        acc += a.x * b.y - b.x * a.y;
    }
    0.5 * acc
}

/// Centroid of a planar polygon (area-weighted).
pub fn polygon_centroid(vertices: &[Point]) -> Point {
    let area = polygon_signed_area(vertices);
    if area.abs() < 1e-300 {
        // Degenerate: fall back to the vertex mean.
        return mean(vertices);
    }
    let n = vertices.len();
    let mut cx = 0.0;
    let mut cy = 0.0;
    for i in 0..n {
        let a = vertices[i];
        let b = vertices[(i + 1) % n];
        let w = a.x * b.y - b.x * a.y;
        cx += (a.x + b.x) * w;
        cy += (a.y + b.y) * w;
    }
    Point::xy(cx / (6.0 * area), cy / (6.0 * area))
}

/// Area and unit normal of a planar polygon embedded in 3-space (faces of
/// 3-D cells). Vertices must be given in order around the face. The normal
/// follows the right-hand rule for the given ordering.
pub fn face_area_normal(vertices: &[Point]) -> (f64, Point) {
    // Newell's method: robust for (near-)planar polygons.
    let n = vertices.len();
    let mut acc = Point::zero();
    for i in 0..n {
        let a = vertices[i];
        let b = vertices[(i + 1) % n];
        acc = acc + a.cross(b);
    }
    let area_vec = acc * 0.5;
    let area = area_vec.norm();
    let normal = area_vec.normalized().unwrap_or(Point::new(0.0, 0.0, 1.0));
    (area, normal)
}

/// Mean of `points`, summed in order.
pub fn mean(points: &[Point]) -> Point {
    points.iter().fold(Point::zero(), |c, &p| c + p) / points.len() as f64
}

/// Area, unit normal and vertex-mean centroid of a face from the points of
/// its vertex loop. Two points are an edge `a → b` of a counter-clockwise
/// polygon: its length, its tangent rotated clockwise by 90 degrees (the
/// outward normal) and its midpoint. More are a face of a 3-D cell
/// ([`face_area_normal`]).
#[inline]
pub fn face_measures(vertices: &[Point]) -> (f64, Point, Point) {
    if let &[a, b] = vertices {
        let t = b - a;
        let len = t.norm();
        return (len, Point::xy(t.y / len, -t.x / len), (a + b) * 0.5);
    }
    let (area, normal) = face_area_normal(vertices);
    (area, normal, mean(vertices))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let a = Point::new(1.0, 2.0, 3.0);
        let b = Point::new(4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(a.cross(b), Point::new(-3.0, 6.0, -3.0));
        assert_eq!((a + b).x, 5.0);
        assert_eq!((b - a).z, 3.0);
        assert_eq!((a * 2.0).y, 4.0);
        assert!((Point::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Point::zero().normalized().is_none());
        let u = Point::new(0.0, 2.0, 0.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert_eq!(u.y, 1.0);
    }

    #[test]
    fn unit_square_area_and_centroid() {
        let square = [
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(1.0, 1.0),
            Point::xy(0.0, 1.0),
        ];
        assert!((polygon_signed_area(&square) - 1.0).abs() < 1e-15);
        let c = polygon_centroid(&square);
        assert!((c.x - 0.5).abs() < 1e-15 && (c.y - 0.5).abs() < 1e-15);
        // Clockwise ordering flips the sign.
        let cw: Vec<Point> = square.iter().rev().copied().collect();
        assert!((polygon_signed_area(&cw) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn triangle_area() {
        let tri = [
            Point::xy(0.0, 0.0),
            Point::xy(2.0, 0.0),
            Point::xy(0.0, 2.0),
        ];
        assert!((polygon_signed_area(&tri) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn face_area_normal_of_axis_aligned_quad() {
        let quad = vec![
            Point::new(0.0, 0.0, 2.0),
            Point::new(3.0, 0.0, 2.0),
            Point::new(3.0, 4.0, 2.0),
            Point::new(0.0, 4.0, 2.0),
        ];
        let (area, normal) = face_area_normal(&quad);
        assert!((area - 12.0).abs() < 1e-12);
        assert!((normal.z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unit_cube_volume() {
        let p = |x: f64, y: f64, z: f64| Point::new(x, y, z);
        // Outward-oriented faces of the unit cube.
        let faces = [
            [p(0., 0., 0.), p(0., 1., 0.), p(1., 1., 0.), p(1., 0., 0.)], // z=0, n=-z
            [p(0., 0., 1.), p(1., 0., 1.), p(1., 1., 1.), p(0., 1., 1.)], // z=1, n=+z
            [p(0., 0., 0.), p(0., 0., 1.), p(0., 1., 1.), p(0., 1., 0.)], // x=0, n=-x
            [p(1., 0., 0.), p(1., 1., 0.), p(1., 1., 1.), p(1., 0., 1.)], // x=1, n=+x
            [p(0., 0., 0.), p(1., 0., 0.), p(1., 0., 1.), p(0., 0., 1.)], // y=0, n=-y
            [p(0., 1., 0.), p(0., 1., 1.), p(1., 1., 1.), p(1., 1., 0.)], // y=1, n=+y
        ];
        // The divergence theorem, as `Mesh::try_from_cells` sums it.
        let flux: f64 = (faces.iter().map(|f| face_measures(f)))
            .map(|(area, normal, centroid)| centroid.dot(normal) * area)
            .sum();
        assert!((flux / 3.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn component_access() {
        let p = Point::new(1.0, 2.0, 3.0);
        assert_eq!(p.component(0), 1.0);
        assert_eq!(p.component(1), 2.0);
        assert_eq!(p.component(2), 3.0);
    }
}
