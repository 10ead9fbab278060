//! Map projection and ASCII rendering used to regenerate Fig. 5 of the
//! paper ("invisible" Starlink satellites plotted against the 1000 largest
//! population centers).
//!
//! The paper's figure is an equirectangular (plate carrée) world map with
//! two point layers. [`AsciiMap`] renders such layers into a fixed-size
//! character grid suitable for terminal output and for golden-file
//! comparison in tests; the experiment binary additionally emits the raw
//! lat/lon series so an external plotter can reproduce the figure exactly.

use crate::coords::Geodetic;

/// Equirectangular projection of a geodetic point onto a `width` × `height`
/// grid covering longitude [−180°, 180°) × latitude [−90°, 90°].
///
/// Returns `(col, row)` with row 0 at the north edge, or `None` when the
/// point falls outside the projectable range (it never does for normalized
/// coordinates, but callers may pass unnormalized longitudes).
pub fn equirectangular(point: Geodetic, width: usize, height: usize) -> Option<(usize, usize)> {
    let mut lon = point.lon.normalized_signed().degrees();
    if lon >= 180.0 {
        lon -= 360.0; // map the 180° meridian onto the west edge
    }
    let lat = point.lat.degrees();
    if !(-90.0..=90.0).contains(&lat) {
        return None;
    }
    let x = (lon + 180.0) / 360.0 * width as f64;
    let y = (90.0 - lat) / 180.0 * height as f64;
    let col = (x.floor() as isize).clamp(0, width as isize - 1) as usize;
    let row = (y.floor() as isize).clamp(0, height as isize - 1) as usize;
    Some((col, row))
}

/// A character-grid world map with layered point plotting.
#[derive(Debug, Clone)]
pub struct AsciiMap {
    width: usize,
    height: usize,
    cells: Vec<char>,
}

impl AsciiMap {
    /// Creates an empty map of the given character dimensions.
    pub fn new(width: usize, height: usize) -> Self {
        AsciiMap {
            width,
            height,
            cells: vec![' '; width * height],
        }
    }

    /// Map width in characters.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height in characters.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Plots a layer of points with `glyph`. Later layers overwrite earlier
    /// ones (the paper draws invisible satellites *over* the city layer).
    pub fn plot<'a>(&mut self, points: impl IntoIterator<Item = &'a Geodetic>, glyph: char) {
        for p in points {
            if let Some((c, r)) = equirectangular(*p, self.width, self.height) {
                self.cells[r * self.width + c] = glyph;
            }
        }
    }

    /// Number of cells currently showing `glyph`.
    pub fn count(&self, glyph: char) -> usize {
        self.cells.iter().filter(|&&c| c == glyph).count()
    }

    /// Renders the map with a one-character border.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.width + 3) * (self.height + 2));
        out.push('+');
        out.extend(std::iter::repeat('-').take(self.width));
        out.push_str("+\n");
        for r in 0..self.height {
            out.push('|');
            out.extend(self.cells[r * self.width..(r + 1) * self.width].iter());
            out.push_str("|\n");
        }
        out.push('+');
        out.extend(std::iter::repeat('-').take(self.width));
        out.push('+');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn origin_projects_to_map_center() {
        let (c, r) = equirectangular(Geodetic::ground(0.0, 0.0), 100, 50).unwrap();
        assert_eq!((c, r), (50, 25));
    }

    #[test]
    fn corners_project_inside_the_grid() {
        let (c, r) = equirectangular(Geodetic::ground(90.0, -180.0), 100, 50).unwrap();
        assert_eq!((c, r), (0, 0));
        let (c, r) = equirectangular(Geodetic::ground(-90.0, 179.999), 100, 50).unwrap();
        assert_eq!((c, r), (99, 49));
    }

    #[test]
    fn northern_points_land_on_upper_rows() {
        let (_, r_north) = equirectangular(Geodetic::ground(60.0, 0.0), 100, 50).unwrap();
        let (_, r_south) = equirectangular(Geodetic::ground(-60.0, 0.0), 100, 50).unwrap();
        assert!(r_north < r_south);
    }

    #[test]
    fn unnormalized_longitude_wraps() {
        let a = equirectangular(Geodetic::ground(10.0, 190.0), 360, 180).unwrap();
        let b = equirectangular(Geodetic::ground(10.0, -170.0), 360, 180).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn later_layers_overwrite_earlier_ones() {
        let mut map = AsciiMap::new(40, 20);
        let p = Geodetic::ground(0.0, 0.0);
        map.plot([&p], '.');
        map.plot([&p], 'o');
        assert_eq!(map.count('o'), 1);
        assert_eq!(map.count('.'), 0);
    }

    #[test]
    fn render_has_expected_dimensions() {
        let map = AsciiMap::new(40, 20);
        let s = map.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 22);
        assert!(lines.iter().all(|l| l.chars().count() == 42));
    }

    proptest! {
        #[test]
        fn prop_projection_stays_in_bounds(
            lat in -90.0..=90.0f64,
            lon in -720.0..720.0f64,
            w in 1usize..500,
            h in 1usize..250,
        ) {
            let (c, r) = equirectangular(Geodetic::ground(lat, lon), w, h).unwrap();
            prop_assert!(c < w && r < h);
        }

        #[test]
        fn prop_projection_is_monotone_in_latitude(
            lat1 in -89.0..89.0f64,
            dlat in 0.5..10.0f64,
            lon in -179.0..179.0f64,
        ) {
            prop_assume!(lat1 + dlat <= 90.0);
            let (_, r_lo) = equirectangular(Geodetic::ground(lat1, lon), 360, 180).unwrap();
            let (_, r_hi) = equirectangular(Geodetic::ground(lat1 + dlat, lon), 360, 180).unwrap();
            prop_assert!(r_hi <= r_lo);
        }
    }
}
